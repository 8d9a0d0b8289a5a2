"""chronofuse: medical report files -> temporal tables -> device-adapted charts.

The pipeline has four stages, each usable on its own:

- ingest: parse reports and extract timestamped observations with a lexicon
- temporal: fuse observations into a dynamic-column table keyed by time slices
- charts: build line and radial chart specs from table columns
- render: emit device-adapted SVG with legibility diagnostics
"""

from .charts import (
    ChartKind,
    ChartSpec,
    Normalization,
    RefRange,
    Segment,
    Series,
    build_line_chart,
    build_radial_bar_chart,
    build_radial_chart,
    line_segments,
    normalize_series,
    radial_bar_slots,
    radial_point,
)
from .errors import ChronofuseError
from .ingest import (
    DateOrder,
    LexiconEntry,
    MetricLexicon,
    Observation,
    ReportDocument,
    ReportFormat,
    Resolution,
    TimePoint,
    extract_observations,
    load_lexicon,
    load_report,
    parse_measurement,
    parse_timestamp,
)
from .render import (
    DEFAULT_PROFILES,
    DeviceClass,
    DeviceProfile,
    Diagnostics,
    LayoutPlan,
    Mark,
    Orientation,
    Rect,
    RenderedChart,
    Transform,
    default_profile,
    legibility_check,
    legibility_report,
    render_svg,
    scale_to_viewport,
    select_layout,
)
from .temporal import (
    Aggregator,
    Cell,
    CellEntry,
    ColumnDescriptor,
    Granularity,
    TemporalTable,
    TimeSlice,
    add_report,
    aggregate_cell,
    column_count_formula,
    fuse,
    load_observations,
    load_table,
    rebucket,
    save_observations,
    save_table,
    slice_for,
    slice_range,
)

__version__ = "0.1.0"
