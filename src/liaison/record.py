"""The base class of the value records (verdicts, instances, modules, ...).

A record's ``__init__`` names the fields as its parameters and begins with
``self._set(locals())``, so Python itself binds positional and keyword
arguments and fills in defaults.  Records refuse assignment, and compare and
hash by class and field values.
"""


class Record:
    def _set(self, fields):
        del fields["self"]
        self.__dict__.update(fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} records are read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        body = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__name__}({body})"
