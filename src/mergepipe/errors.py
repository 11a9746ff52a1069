"""Typed errors raised across the pipeline.

Every error carries the stage it belongs to via its class.  BadConfig means
a value that no data could make valid; a limit that depends on the data
raises the type of the stage that meets it.  The CLI maps both onto exit
codes by phase, the same way in every command: BadConfig and EmptySpace
exit 2, any other error exits 2 while inputs are read and 3 while a stage
runs.
"""


class MergepipeError(Exception):
    """Base class for all library errors."""


# dataset -----------------------------------------------------------------

class MalformedRow(MergepipeError):
    pass


class UnknownCategory(MergepipeError):
    pass


class BadSentiment(MergepipeError):
    pass


class DuplicateId(MergepipeError):
    pass


class EmptySide(MergepipeError):
    pass


class BadConfig(MergepipeError):
    pass


# impute ------------------------------------------------------------------

class TooFewRows(MergepipeError):
    pass


class NoComparableRow(MergepipeError):
    pass


# reduce ------------------------------------------------------------------

class MissingCell(MergepipeError):
    pass


class DegenerateData(MergepipeError):
    pass


class ShapeMismatch(MergepipeError):
    pass


class EmptyLevel(MergepipeError):
    pass


# resample ----------------------------------------------------------------

class TooFewMinority(MergepipeError):
    pass


class SingleClass(MergepipeError):
    pass


class MultiClass(MergepipeError):
    pass


# neural ------------------------------------------------------------------

class LengthMismatch(MergepipeError):
    pass


class NonFiniteLoss(MergepipeError):
    pass


# metrics -----------------------------------------------------------------

class EmptyInput(MergepipeError):
    pass


class NoPositives(MergepipeError):
    pass


# pipeline ----------------------------------------------------------------

class MissingSentiment(MergepipeError):
    pass


class EmptySpace(MergepipeError):
    pass
