"""Source-universal finitary transform between i.i.d. symbol streams.

The package has five layers: exact-rational primitives (:mod:`core`), the
bit-fed symbol simulator and its exact analyzers (:mod:`dyadic`), unbiased-bit
extraction from pattern-free words (:mod:`extractor`), the marker/block
transform and its stack-sweep schedule (:mod:`engine`), and statistical/exact
verification harnesses (:mod:`calibration`).  :mod:`cli` binds everything to
text streams.
"""

from .core import (
    BitString,
    ProbabilityVector,
    SymbolWord,
    cumulative,
    entropy,
    parse_rational,
)
from .dyadic import (
    DyadicCursor,
    InsufficientBitsError,
    TailReport,
    exact_symbol_law,
    exact_tail,
    simulate_one,
)
from .extractor import (
    ExtractionTriple,
    PatternConfig,
    class_from_index,
    class_index,
    class_size,
    count_vector,
    extract,
    invert,
    is_pattern_free,
    rank_in_class,
    unrank_in_class,
)
from .engine import (
    BlockOutput,
    CodingReport,
    MapResult,
    UndeterminedIndex,
    WindowExhausted,
    certified_radius,
    encode_stream,
    map_range,
    scan_markers,
)
from .calibration import (
    CertificationReport,
    ChiSquareReport,
    ExtractorReport,
    Simu1Report,
    TailFit,
    certify_marker_length,
    chi_square,
    expected_block_length,
    sample_blocks,
    select_marker_length,
    tail_fit,
    verify_extractor,
    verify_simu1,
)

__version__ = "0.1.0"
