"""Named contours and profile tags used across the CLI, demos and tests."""
from .opalg import ContourParams
from .rational import GaussianRational as Q

#: reference contour -2i*sqrt(1+ix): lower half-plane, symmetric endpoints
LOWER_PT = ContourParams(Q(0, -2), Q(1), Q(1))

#: i*sqrt(1+ix): upper half-plane mirror of the reference contour
UPPER_PT = ContourParams(Q(0, 1), Q(1), Q(1))

#: sqrt(1+ix): ends in adjacent sectors, not symmetric under reflection
ADJACENT = ContourParams(Q(1), Q(1), Q(1))

#: sqrt(ix): both root pairings give symmetric half-plane contours
SQRT_IX = ContourParams(Q(1), Q(0), Q(1))

#: reference contour with the free offset parameter moved to b = 5
LOWER_PT_B5 = ContourParams(Q(0, -2), Q(5), Q(1))

#: the five-contour matrix every exact identity is exercised on
STANDARD_FIVE = (LOWER_PT, UPPER_PT, ADJACENT, SQRT_IX, LOWER_PT_B5)

#: the contour of each momentum-space profile of ``ptcontour.wkb``, by tag
TAG_PARAMS = {"upper_pt": UPPER_PT, "adjacent": ADJACENT, "sqrt_ix": SQRT_IX}
TAGS = tuple(TAG_PARAMS)
