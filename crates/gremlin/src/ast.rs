//! Gremlin 1.x pipe-dialect abstract syntax.
//!
//! The dialect covered is the one the paper translates (§4, Table 5/8):
//! transform pipes, filter pipes, a few side-effect pipes (parsed, executed
//! as identity per §4.4), branch pipes, and the CRUD statements LinkBench
//! needs. Closures are restricted to simple comparisons/arithmetic over
//! `it` — exactly the paper's "no complex Groovy" limitation.

use sqlgraph_json::Json;

/// A complete Gremlin statement.
#[derive(Debug, Clone, PartialEq)]
pub enum GremlinStatement {
    /// A read-only traversal, e.g. `g.V.has('name','marko').out.count()`.
    Query(Pipeline),
    /// `g.addVertex([k:v, ...])`
    AddVertex {
        /// Initial properties.
        props: Vec<(String, Json)>,
    },
    /// `g.addEdge(g.v(a), g.v(b), 'label', [k:v, ...])`
    AddEdge {
        /// Source vertex id.
        src: i64,
        /// Target vertex id.
        dst: i64,
        /// Edge label.
        label: String,
        /// Initial properties.
        props: Vec<(String, Json)>,
    },
    /// `g.removeVertex(g.v(id))`
    RemoveVertex {
        /// Vertex id.
        id: i64,
    },
    /// `g.removeEdge(g.e(id))`
    RemoveEdge {
        /// Edge id.
        id: i64,
    },
    /// `g.v(id).setProperty('key', value)`
    SetVertexProperty {
        /// Vertex id.
        id: i64,
        /// Property key.
        key: String,
        /// New value.
        value: Json,
    },
    /// `g.e(id).setProperty('key', value)`
    SetEdgeProperty {
        /// Edge id.
        id: i64,
        /// Property key.
        key: String,
        /// New value.
        value: Json,
    },
}

/// A scalar pipe argument a prepared traversal binds at run time instead
/// of compiling into its statement: the id of `g.v(id)` / `g.e(id)`, the
/// value of `g.V(k, v)` / `has(k, [cmp,] v)`, and the `interval` bounds.
/// Everything else a pipe takes — labels, property keys, `range` and `loop`
/// bounds, closures — decides the statement's shape and stays in the pipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Lit<T = Json> {
    /// The literal as written.
    pub value: T,
    /// Its position among the statement's lifted literals in text order, as
    /// numbered by [`crate::parse_lifted`]. A pipeline built by hand has no
    /// numbering (`From` gives 0); it can be interpreted and translated to
    /// inline SQL, which read only `value`.
    pub slot: usize,
}

impl<T> From<T> for Lit<T> {
    fn from(value: T) -> Lit<T> {
        Lit { value, slot: 0 }
    }
}

/// An ordered chain of pipes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    /// The pipes, in evaluation order.
    pub pipes: Vec<Pipe>,
}

/// Comparison operators usable in `has` and closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Equality.
    Eq,
    /// Inequality.
    Neq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Lte,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Gte,
}

/// A restricted closure expression over the current element `it`.
#[derive(Debug, Clone, PartialEq)]
pub enum Closure {
    /// `it.<key>` — property access on the current element.
    Prop(String),
    /// `it` — the element itself (id comparison).
    It,
    /// `it.loops` — loop counter (only meaningful inside `loop`).
    Loops,
    /// Literal value.
    Literal(Json),
    /// Comparison.
    Compare(Cmp, Box<Closure>, Box<Closure>),
    /// Logical AND.
    And(Box<Closure>, Box<Closure>),
    /// Logical OR.
    Or(Box<Closure>, Box<Closure>),
    /// Logical NOT.
    Not(Box<Closure>),
    /// String `contains`/`startsWith`/`endsWith`-style matching via
    /// `it.key.matches('regex-free pattern with %')` is not supported;
    /// instead `contains` maps to substring search.
    Contains(Box<Closure>, Box<Closure>),
}

/// One Gremlin pipe.
#[derive(Debug, Clone, PartialEq)]
pub enum Pipe {
    // -- start pipes --
    /// `g.V` (optionally `g.V('key','value')` — a GraphQuery start).
    Vertices {
        /// Key/value filter applied at the start (GraphQuery merge).
        filter: Option<(String, Lit)>,
    },
    /// `g.E`.
    Edges,
    /// `g.v(id)` — single-vertex start.
    VertexById(Lit<i64>),
    /// `g.e(id)` — single-edge start.
    EdgeById(Lit<i64>),

    // -- transform pipes --
    /// `out(labels...)`: adjacent vertices along outgoing edges.
    Out(Vec<String>),
    /// `in(labels...)`: adjacent vertices along incoming edges.
    In(Vec<String>),
    /// `both(labels...)`: adjacent vertices in both directions.
    Both(Vec<String>),
    /// `outE(labels...)`: outgoing edges.
    OutE(Vec<String>),
    /// `inE(labels...)`: incoming edges.
    InE(Vec<String>),
    /// `bothE(labels...)`: edges in both directions.
    BothE(Vec<String>),
    /// `outV`: an edge's source vertex.
    OutV,
    /// `inV`: an edge's target vertex.
    InV,
    /// `bothV`: both endpoints of an edge.
    BothV,
    /// `id`: element id.
    Id,
    /// `label`: edge label.
    Label,
    /// `values('key')` / property projection.
    Values(String),
    /// `path`: the traversal path of each object.
    Path,
    /// `back(n)` / `back('name')`: rewind the traverser.
    Back(BackTarget),

    // -- filter pipes --
    /// `has('key')` / `has('key', value)` / `has('key', T.gt, value)`.
    Has {
        /// Property key.
        key: String,
        /// Comparison (Eq for the two-argument form).
        cmp: Cmp,
        /// Value (None = existence check).
        value: Option<Lit>,
    },
    /// `hasNot('key')`.
    HasNot {
        /// Property key.
        key: String,
    },
    /// `filter{closure}`.
    Filter(Closure),
    /// `interval('key', lo, hi)`: lo <= value < hi.
    Interval {
        /// Property key.
        key: String,
        /// Inclusive low bound.
        lo: Lit,
        /// Exclusive high bound.
        hi: Lit,
    },
    /// `[lo..hi]` or `range(lo, hi)`: inclusive positional slice.
    Range {
        /// First index kept (0-based).
        lo: i64,
        /// Last index kept (inclusive).
        hi: i64,
    },
    /// `dedup()`.
    Dedup,
    /// `except(x)`: drop elements present in the named bag.
    Except(String),
    /// `retain(x)`: keep only elements present in the named bag.
    Retain(String),
    /// `simplePath`: drop traversers whose path repeats an element.
    SimplePath,
    /// `and(_()..., _()...)`: keep elements for which every branch yields
    /// at least one result.
    And(Vec<Pipeline>),
    /// `or(_()..., _()...)`: keep elements for which some branch yields at
    /// least one result.
    Or(Vec<Pipeline>),

    // -- side-effect pipes (identity semantics per §4.4) --
    /// `as('name')`: mark the current step.
    As(String),
    /// `aggregate(x)`: greedily fill the named bag (barrier), pass through.
    Aggregate(String),
    /// Any other side-effect pipe (`groupBy`, `table`, `cap`, `iterate`,
    /// `sideEffect{...}`) — parsed, executed as identity.
    SideEffect(String),

    // -- branch pipes --
    /// `ifThenElse{test}{then}{else}` over closure expressions.
    IfThenElse {
        /// Test closure (boolean).
        test: Closure,
        /// Value produced when true.
        then: Closure,
        /// Value produced when false.
        els: Closure,
    },
    /// `copySplit(_()..., _()...)` followed by `fairMerge`/`exhaustMerge`.
    CopySplit(Vec<Pipeline>),
    /// `loop(n){cond}` / `loop('name'){cond}`: re-run the section since the
    /// numbered step / named mark while the closure holds.
    Loop {
        /// How far back the loop section starts.
        back: BackTarget,
        /// Continue-while condition (usually `it.loops < k`).
        cond: Closure,
    },

    // -- reduce --
    /// `count()`.
    Count,
}

/// Target of `back` / `loop`.
#[derive(Debug, Clone, PartialEq)]
pub enum BackTarget {
    /// Numeric: that many transform steps back.
    Steps(usize),
    /// Named: the position of `as('name')`.
    Named(String),
}
