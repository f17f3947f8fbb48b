"""Exception types shared across the package."""


class BubbleLatticeError(Exception):
    """Base class for all errors raised by this library."""


class WordError(BubbleLatticeError, ValueError):
    """A sequence of letters is not a valid shuffle word."""


class DuplicateLetter(WordError):
    pass


class OutOfAlphabet(WordError):
    pass


class NotIncreasing(WordError):
    pass


class Unrealizable(WordError):
    """No shuffle word has the requested supports and inversion set."""


class WrongFamily(BubbleLatticeError, ValueError):
    pass


class InvalidTriword(BubbleLatticeError, ValueError):
    pass


class NotALattice(BubbleLatticeError, ValueError):
    pass


class NotJoinSemidistributive(BubbleLatticeError, ValueError):
    pass


class NotExtremal(BubbleLatticeError, ValueError):
    pass


class KappaMissing(BubbleLatticeError, ValueError):
    """Some atom a has no greatest element among {p : a is not below p}.

    ``elements`` holds the ids of the first counterexample, when known.
    """

    def __init__(self, message: str, elements: tuple[int, ...] = ()):
        super().__init__(message)
        self.elements = elements


class CapExceeded(BubbleLatticeError, RuntimeError):
    pass
