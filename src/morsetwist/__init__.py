"""Exact twisted Morse / cellular chain complexes with local coefficients."""

from .chains import (
    ChainComplex,
    HomologySummary,
    dualize,
    euler_cells,
    euler_homology,
    homology,
    reduce,
    validate_complex,
)
from .catalog import CatalogEntry, get_example, run_all
from .cw import (
    FacetList,
    RegularCW,
    cw_to_morse,
    from_simplicial,
    validate_regular,
)
from .errors import MorsetwistError
from .invariants import (
    NovikovNumbers,
    ObstructionVerdict,
    check_inequalities,
    hspace_obstruction,
    novikov_numbers,
    parallel_form_obstruction,
)
from .linalg import Matrix, nov_reduce, rank_expsum, snf_int
from .morse import (
    CriticalPoint,
    DeckGroup,
    FlowLine,
    LocalSystem,
    MorseDatum,
    build_cochain,
    build_complex,
    gauge_transform,
    is_simple,
    lift_cover,
    potential_shift,
    rescale_datum,
)
from .rings import NovElem

__version__ = "0.1.0"
