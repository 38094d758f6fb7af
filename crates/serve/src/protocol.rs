//! JSON-lines wire protocol: typed requests, typed responses, and their
//! [`Json`] encodings.
//!
//! One request object per line, one response object per line, in order —
//! the same framing as the repo's `BENCH_*.json` reports, so the server,
//! the stress harness, and any JSONL tool share one parser
//! ([`sgl_observe::parse_json`]). Every response carries the request's
//! `id` back (when one was given), so clients may pipeline.
//!
//! ```text
//! → {"op":"load_graph","name":"ref","dimacs":"p sp 2 1\na 1 2 3\n"}
//! ← {"id":null,"status":"ok","op":"load_graph","data":{"name":"ref",...}}
//! → {"op":"sssp","graph":"ref","source":0,"id":7,"deadline_ms":250}
//! ← {"id":7,"status":"ok","op":"sssp","data":{"distances":[0,3],...}}
//! ← {"id":8,"status":"error","error":{"kind":"overloaded","message":"…"}}
//! ```
//!
//! Errors are *typed* (`kind` is a closed enum, [`ErrorKind`]) because the
//! admission-control contract depends on it: a shed request is an
//! `overloaded` response, never a closed socket or a hang, and clients
//! (the stress harness, the CI smoke job) count kinds, not substrings.

use std::fmt::Write;

use sgl_graph::Len;
use sgl_observe::Json;

/// Every operation the server answers. Order is the wire-stable stats
/// index ([`OpKind::index`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Register a graph from DIMACS text.
    LoadGraph,
    /// Single-source shortest paths (§3 network), optionally targeted.
    Sssp,
    /// Hop-bounded shortest paths (layered network).
    Khop,
    /// One row of the all-pairs matrix (shares the §3 network cache).
    ApspRow,
    /// Structural stats of a loaded graph (no simulation).
    GraphStats,
    /// Server-side latency/cache/shed counters.
    ServerStats,
    /// Dump retained traces as Chrome trace-event JSON.
    TraceDump,
    /// Initiate graceful drain.
    Shutdown,
}

impl OpKind {
    /// All kinds, in [`Self::index`] order.
    pub const ALL: [Self; 8] = [
        Self::LoadGraph,
        Self::Sssp,
        Self::Khop,
        Self::ApspRow,
        Self::GraphStats,
        Self::ServerStats,
        Self::TraceDump,
        Self::Shutdown,
    ];

    /// Wire name of the operation.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::LoadGraph => "load_graph",
            Self::Sssp => "sssp",
            Self::Khop => "khop",
            Self::ApspRow => "apsp_row",
            Self::GraphStats => "graph_stats",
            Self::ServerStats => "server_stats",
            Self::TraceDump => "trace_dump",
            Self::Shutdown => "shutdown",
        }
    }

    /// Dense index for per-op stats arrays.
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }

    /// Inverse of [`Self::name`] (client-side response classification).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Whether a query may use the compiled-network cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Use (and populate) the cache — the production path.
    #[default]
    Default,
    /// Compile a throwaway network, skipping the cache entirely. Counts
    /// as a miss. Exists so the stress harness can sample the cold-compile
    /// path repeatedly without evicting live entries.
    Bypass,
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register `dimacs` under `name` (replacing any previous graph).
    LoadGraph {
        /// Registry key for later queries.
        name: String,
        /// DIMACS `.gr` text (untrusted bytes; parse errors come back as
        /// line-numbered `bad_request` responses).
        dimacs: String,
    },
    /// §3 spiking SSSP from `source`.
    Sssp {
        /// Registry key of the graph.
        graph: String,
        /// Source node (0-based).
        source: usize,
        /// Stop early once this node's distance is resolved.
        target: Option<usize>,
        /// Cache policy.
        cache: CacheMode,
    },
    /// ≤ `k`-hop shortest paths from `source`.
    Khop {
        /// Registry key of the graph.
        graph: String,
        /// Source node (0-based).
        source: usize,
        /// Hop bound (≥ 1).
        k: u32,
        /// Cache policy.
        cache: CacheMode,
    },
    /// Row `source` of the all-pairs matrix.
    ApspRow {
        /// Registry key of the graph.
        graph: String,
        /// Row index (0-based).
        source: usize,
        /// Cache policy.
        cache: CacheMode,
    },
    /// Structural stats of a loaded graph.
    GraphStats {
        /// Registry key of the graph.
        graph: String,
    },
    /// Server counters and latency quantiles.
    ServerStats,
    /// Retained traces as Chrome trace-event JSON.
    TraceDump {
        /// Cap on traces in the dump (`None` = everything retained).
        limit: Option<usize>,
    },
    /// Begin graceful drain.
    Shutdown,
}

impl Request {
    /// The operation this request performs.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        match self {
            Self::LoadGraph { .. } => OpKind::LoadGraph,
            Self::Sssp { .. } => OpKind::Sssp,
            Self::Khop { .. } => OpKind::Khop,
            Self::ApspRow { .. } => OpKind::ApspRow,
            Self::GraphStats { .. } => OpKind::GraphStats,
            Self::ServerStats => OpKind::ServerStats,
            Self::TraceDump { .. } => OpKind::TraceDump,
            Self::Shutdown => OpKind::Shutdown,
        }
    }

    /// The registry name this request is about, if it concerns one graph —
    /// the shard-routing key: every op that touches a graph executes (or
    /// registers) on the shard that owns that name, so a graph's compiled
    /// networks live on exactly one shard.
    #[must_use]
    pub fn graph_name(&self) -> Option<&str> {
        match self {
            Self::LoadGraph { name, .. } => Some(name),
            Self::Sssp { graph, .. }
            | Self::Khop { graph, .. }
            | Self::ApspRow { graph, .. }
            | Self::GraphStats { graph } => Some(graph),
            Self::ServerStats | Self::TraceDump { .. } | Self::Shutdown => None,
        }
    }
}

/// A request plus its wire envelope (client correlation id, deadline).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Client correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// Relative deadline: the request is answered `deadline_exceeded`
    /// instead of executed if it waited longer than this in the queue.
    pub deadline_ms: Option<u64>,
    /// Client-supplied trace id. Forces the request to be traced (when
    /// tracing is enabled server-side) and is echoed in the response;
    /// absent, the server assigns one to sampled requests.
    pub trace_id: Option<u64>,
    /// The operation.
    pub request: Request,
}

impl Envelope {
    /// An envelope with no id, no deadline, and no trace id.
    #[must_use]
    pub fn of(request: Request) -> Self {
        Self {
            id: None,
            deadline_ms: None,
            trace_id: None,
            request,
        }
    }
}

/// Typed failure kinds — the closed vocabulary clients branch on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed request (bad JSON shape, unknown op, bad params, DIMACS
    /// parse failure).
    BadRequest,
    /// The named graph is not loaded.
    UnknownGraph,
    /// Load shed: the admission queue is full. Retry later.
    Overloaded,
    /// The server is draining; no new work is admitted.
    Draining,
    /// The request spent longer than its deadline in the queue.
    DeadlineExceeded,
    /// Simulator-side failure (should not happen for valid graphs).
    Internal,
}

impl ErrorKind {
    /// All kinds, in [`Self::index`] order.
    pub const ALL: [Self; 6] = [
        Self::BadRequest,
        Self::UnknownGraph,
        Self::Overloaded,
        Self::Draining,
        Self::DeadlineExceeded,
        Self::Internal,
    ];

    /// Dense index for per-kind counters.
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }

    /// Wire name of the kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::BadRequest => "bad_request",
            Self::UnknownGraph => "unknown_graph",
            Self::Overloaded => "overloaded",
            Self::Draining => "draining",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::Internal => "internal",
        }
    }

    /// Inverse of [`Self::as_str`] (for client-side classification).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// A server response: success with a data payload, or a typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Success.
    Ok {
        /// The operation answered.
        op: OpKind,
        /// Operation-specific payload.
        data: Json,
    },
    /// Typed failure.
    Error {
        /// What went wrong (closed enum).
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Shorthand error constructor.
    #[must_use]
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self::Error {
            kind,
            message: message.into(),
        }
    }

    /// Whether this is a success response.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Self::Ok { .. })
    }

    /// The error kind, if this is an error.
    #[must_use]
    pub fn error_kind(&self) -> Option<ErrorKind> {
        match self {
            Self::Error { kind, .. } => Some(*kind),
            Self::Ok { .. } => None,
        }
    }

    /// Serializes with the request's echoed `id` (JSON `null` when absent).
    #[must_use]
    pub fn to_json(&self, id: Option<u64>) -> Json {
        self.to_json_traced(id, None)
    }

    /// Like [`Self::to_json`] but echoing a `trace_id` when the request
    /// was traced. With `trace_id = None` the output is byte-identical
    /// to [`Self::to_json`] — untraced responses carry no trace field.
    #[must_use]
    pub fn to_json_traced(&self, id: Option<u64>, trace_id: Option<u64>) -> Json {
        let id = id.map_or(Json::Null, Json::UInt);
        let mut fields = vec![("id", id)];
        if let Some(t) = trace_id {
            fields.push(("trace_id", Json::UInt(t)));
        }
        match self {
            Self::Ok { op, data } => {
                fields.push(("status", Json::Str("ok".into())));
                fields.push(("op", Json::Str(op.name().into())));
                fields.push(("data", data.clone()));
            }
            Self::Error { kind, message } => {
                fields.push(("status", Json::Str("error".into())));
                fields.push((
                    "error",
                    Json::obj(vec![
                        ("kind", Json::Str(kind.as_str().into())),
                        ("message", Json::Str(message.clone())),
                    ]),
                ));
            }
        }
        Json::obj(fields)
    }
}

fn field_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .and_then(|u| usize::try_from(u).ok())
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field \"{key}\""))
}

fn field_cache(v: &Json) -> Result<CacheMode, String> {
    match v.get("cache").and_then(Json::as_str) {
        None => Ok(CacheMode::Default),
        Some("default") => Ok(CacheMode::Default),
        Some("bypass") => Ok(CacheMode::Bypass),
        Some(other) => Err(format!("unknown cache mode {other:?}")),
    }
}

/// Parses one request line (already JSON-parsed) into an [`Envelope`].
///
/// # Errors
/// Returns a human-readable message suitable for a `bad_request` response.
pub fn parse_request(v: &Json) -> Result<Envelope, String> {
    let op = field_str(v, "op")?;
    let request = match op.as_str() {
        "load_graph" => Request::LoadGraph {
            name: field_str(v, "name")?,
            dimacs: field_str(v, "dimacs")?,
        },
        "sssp" => Request::Sssp {
            graph: field_str(v, "graph")?,
            source: field_usize(v, "source")?,
            target: match v.get("target") {
                None | Some(Json::Null) => None,
                Some(t) => Some(
                    t.as_u64()
                        .and_then(|u| usize::try_from(u).ok())
                        .ok_or("non-integer field \"target\"")?,
                ),
            },
            cache: field_cache(v)?,
        },
        "khop" => Request::Khop {
            graph: field_str(v, "graph")?,
            source: field_usize(v, "source")?,
            k: u32::try_from(field_usize(v, "k")?).map_err(|_| "field \"k\" out of range")?,
            cache: field_cache(v)?,
        },
        "apsp_row" => Request::ApspRow {
            graph: field_str(v, "graph")?,
            source: field_usize(v, "source")?,
            cache: field_cache(v)?,
        },
        "graph_stats" => Request::GraphStats {
            graph: field_str(v, "graph")?,
        },
        "server_stats" => Request::ServerStats,
        "trace_dump" => Request::TraceDump {
            limit: match v.get("limit") {
                None | Some(Json::Null) => None,
                Some(l) => Some(
                    l.as_u64()
                        .and_then(|u| usize::try_from(u).ok())
                        .ok_or("non-integer field \"limit\"")?,
                ),
            },
        },
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Envelope {
        id: v.get("id").and_then(Json::as_u64),
        deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
        trace_id: v.get("trace_id").and_then(Json::as_u64),
        request,
    })
}

/// Serializes an envelope into its request line (the client half of
/// [`parse_request`]).
#[must_use]
pub fn request_json(envelope: &Envelope) -> Json {
    let mut fields: Vec<(&str, Json)> =
        vec![("op", Json::Str(envelope.request.kind().name().into()))];
    let push_cache = |fields: &mut Vec<(&str, Json)>, cache: CacheMode| {
        if cache == CacheMode::Bypass {
            fields.push(("cache", Json::Str("bypass".into())));
        }
    };
    match &envelope.request {
        Request::LoadGraph { name, dimacs } => {
            fields.push(("name", Json::Str(name.clone())));
            fields.push(("dimacs", Json::Str(dimacs.clone())));
        }
        Request::Sssp {
            graph,
            source,
            target,
            cache,
        } => {
            fields.push(("graph", Json::Str(graph.clone())));
            fields.push(("source", Json::UInt(*source as u64)));
            if let Some(t) = target {
                fields.push(("target", Json::UInt(*t as u64)));
            }
            push_cache(&mut fields, *cache);
        }
        Request::Khop {
            graph,
            source,
            k,
            cache,
        } => {
            fields.push(("graph", Json::Str(graph.clone())));
            fields.push(("source", Json::UInt(*source as u64)));
            fields.push(("k", Json::UInt(u64::from(*k))));
            push_cache(&mut fields, *cache);
        }
        Request::ApspRow {
            graph,
            source,
            cache,
        } => {
            fields.push(("graph", Json::Str(graph.clone())));
            fields.push(("source", Json::UInt(*source as u64)));
            push_cache(&mut fields, *cache);
        }
        Request::GraphStats { graph } => {
            fields.push(("graph", Json::Str(graph.clone())));
        }
        Request::TraceDump { limit } => {
            if let Some(l) = limit {
                fields.push(("limit", Json::UInt(*l as u64)));
            }
        }
        Request::ServerStats | Request::Shutdown => {}
    }
    if let Some(id) = envelope.id {
        fields.push(("id", Json::UInt(id)));
    }
    if let Some(d) = envelope.deadline_ms {
        fields.push(("deadline_ms", Json::UInt(d)));
    }
    if let Some(t) = envelope.trace_id {
        fields.push(("trace_id", Json::UInt(t)));
    }
    Json::obj(fields)
}

/// The `trace_id` a response line echoes, if the request was traced —
/// the client half of [`Response::to_json_traced`].
#[must_use]
pub fn response_trace_id(v: &Json) -> Option<u64> {
    v.get("trace_id").and_then(Json::as_u64)
}

/// Parses a response line into `(echoed id, response)` — the client half
/// of [`Response::to_json`].
///
/// # Errors
/// Fails on shapes [`Response::to_json`] cannot have produced.
pub fn parse_response(v: &Json) -> Result<(Option<u64>, Response), String> {
    let id = v.get("id").and_then(Json::as_u64);
    match v.get("status").and_then(Json::as_str) {
        Some("ok") => {
            let op = v
                .get("op")
                .and_then(Json::as_str)
                .and_then(OpKind::from_name)
                .ok_or("ok response without a known op")?;
            let data = v.get("data").cloned().unwrap_or(Json::Null);
            Ok((id, Response::Ok { op, data }))
        }
        Some("error") => {
            let err = v
                .get("error")
                .ok_or("error response without error object")?;
            let kind = err
                .get("kind")
                .and_then(Json::as_str)
                .and_then(ErrorKind::from_name)
                .ok_or("error response without a known kind")?;
            let message = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            Ok((id, Response::Error { kind, message }))
        }
        _ => Err("response without a status".into()),
    }
}

/// Encodes a distance row (`None` = unreachable) as a JSON array with
/// `null` sentinels — the wire twin of
/// [`sgl_snn::encoding::pack_spike_times`]'s dense in-memory form.
#[must_use]
pub fn distances_json(distances: &[Option<Len>]) -> Json {
    Json::Arr(
        distances
            .iter()
            .map(|d| d.map_or(Json::Null, Json::UInt))
            .collect(),
    )
}

/// Renders a distance row straight to JSON text, byte-identical to
/// `distances_json(distances).to_string()` but without the intermediate
/// `Vec<Json>`: the server renders each computed row once and splices the
/// text as [`Json::Raw`] into both its memo and the response line.
#[must_use]
pub(crate) fn render_distances(distances: &[Option<Len>]) -> String {
    let mut out = String::with_capacity(2 + 4 * distances.len());
    out.push('[');
    for (i, d) in distances.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match d {
            None => out.push_str("null"),
            Some(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
    out.push(']');
    out
}

/// Decodes a [`distances_json`] array (client side).
///
/// # Errors
/// Fails on non-array input or non-integer, non-null elements.
pub fn parse_distances(v: &Json) -> Result<Vec<Option<Len>>, String> {
    v.as_arr()
        .ok_or("distances is not an array")?
        .iter()
        .map(|d| match d {
            Json::Null => Ok(None),
            other => other
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("non-integer distance entry {other}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgl_observe::parse_json;

    #[test]
    fn parses_every_op() {
        for (line, kind) in [
            (
                r#"{"op":"load_graph","name":"g","dimacs":"p sp 1 0\n"}"#,
                OpKind::LoadGraph,
            ),
            (r#"{"op":"sssp","graph":"g","source":0}"#, OpKind::Sssp),
            (
                r#"{"op":"khop","graph":"g","source":1,"k":3}"#,
                OpKind::Khop,
            ),
            (
                r#"{"op":"apsp_row","graph":"g","source":2}"#,
                OpKind::ApspRow,
            ),
            (r#"{"op":"graph_stats","graph":"g"}"#, OpKind::GraphStats),
            (r#"{"op":"server_stats"}"#, OpKind::ServerStats),
            (r#"{"op":"trace_dump"}"#, OpKind::TraceDump),
            (r#"{"op":"trace_dump","limit":5}"#, OpKind::TraceDump),
            (r#"{"op":"shutdown"}"#, OpKind::Shutdown),
        ] {
            let env = parse_request(&parse_json(line).unwrap()).unwrap();
            assert_eq!(env.request.kind(), kind, "{line}");
        }
    }

    #[test]
    fn envelope_fields_round_trip() {
        let v =
            parse_json(r#"{"op":"sssp","graph":"g","source":4,"target":9,"id":12,"deadline_ms":50,"cache":"bypass"}"#)
                .unwrap();
        let env = parse_request(&v).unwrap();
        assert_eq!(env.id, Some(12));
        assert_eq!(env.deadline_ms, Some(50));
        assert_eq!(env.trace_id, None);
        assert_eq!(
            env.request,
            Request::Sssp {
                graph: "g".into(),
                source: 4,
                target: Some(9),
                cache: CacheMode::Bypass,
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            r#"{"graph":"g"}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":"sssp","graph":"g"}"#,
            r#"{"op":"sssp","graph":"g","source":-1}"#,
            r#"{"op":"khop","graph":"g","source":0}"#,
            r#"{"op":"sssp","graph":"g","source":0,"cache":"maybe"}"#,
            r#"{"op":"load_graph","name":"g"}"#,
        ] {
            let v = parse_json(line).unwrap();
            assert!(parse_request(&v).is_err(), "{line} should be rejected");
        }
    }

    #[test]
    fn response_json_shapes() {
        let ok = Response::Ok {
            op: OpKind::Sssp,
            data: Json::obj(vec![("x", Json::UInt(1))]),
        };
        let j = ok.to_json(Some(3));
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(j.get("op").and_then(Json::as_str), Some("sssp"));

        let err = Response::error(ErrorKind::Overloaded, "queue full");
        let j = err.to_json(None);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(err.error_kind(), Some(ErrorKind::Overloaded));
    }

    #[test]
    fn trace_id_echo_and_untraced_byte_identity() {
        let ok = Response::Ok {
            op: OpKind::Sssp,
            data: Json::obj(vec![("x", Json::UInt(1))]),
        };
        let traced = ok.to_json_traced(Some(3), Some(0xABC));
        assert_eq!(response_trace_id(&traced), Some(0xABC));
        assert_eq!(traced.get("id").and_then(Json::as_u64), Some(3));
        // An untraced response must serialize exactly as before tracing
        // existed — no trace field, byte for byte.
        assert_eq!(
            ok.to_json_traced(Some(3), None).to_string(),
            ok.to_json(Some(3)).to_string()
        );
        assert_eq!(response_trace_id(&ok.to_json(Some(3))), None);
    }

    #[test]
    fn error_kind_names_round_trip() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::UnknownGraph,
            ErrorKind::Overloaded,
            ErrorKind::Draining,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("nope"), None);
    }

    #[test]
    fn distances_round_trip() {
        let row = vec![Some(0), Some(7), None, Some(12)];
        let back = parse_distances(&distances_json(&row)).unwrap();
        assert_eq!(back, row);
        assert!(parse_distances(&Json::UInt(3)).is_err());
    }

    #[test]
    fn op_indices_are_dense_and_stable() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(OpKind::from_name(k.name()), Some(*k));
        }
        for (i, k) in ErrorKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn request_serialization_round_trips() {
        let envelopes = vec![
            Envelope {
                id: Some(4),
                deadline_ms: Some(100),
                trace_id: Some(0xBEEF),
                request: Request::Sssp {
                    graph: "g".into(),
                    source: 3,
                    target: Some(7),
                    cache: CacheMode::Bypass,
                },
            },
            Envelope::of(Request::Khop {
                graph: "g".into(),
                source: 0,
                k: 5,
                cache: CacheMode::Default,
            }),
            Envelope::of(Request::LoadGraph {
                name: "g".into(),
                dimacs: "p sp 1 0\n".into(),
            }),
            Envelope::of(Request::ApspRow {
                graph: "g".into(),
                source: 2,
                cache: CacheMode::Default,
            }),
            Envelope::of(Request::GraphStats { graph: "g".into() }),
            Envelope::of(Request::ServerStats),
            Envelope::of(Request::TraceDump { limit: None }),
            Envelope::of(Request::TraceDump { limit: Some(10) }),
            Envelope::of(Request::Shutdown),
        ];
        for env in envelopes {
            // Through the writer, the wire, and the parser.
            let line = request_json(&env).to_string();
            let back = parse_request(&parse_json(&line).unwrap()).unwrap();
            assert_eq!(back, env, "{line}");
        }
    }

    #[test]
    fn response_parsing_round_trips() {
        let ok = Response::Ok {
            op: OpKind::Khop,
            data: Json::obj(vec![("k", Json::UInt(3))]),
        };
        let (id, back) = parse_response(&ok.to_json(Some(11))).unwrap();
        assert_eq!(id, Some(11));
        assert_eq!(back, ok);
        let err = Response::error(ErrorKind::DeadlineExceeded, "too slow");
        let (id, back) = parse_response(&err.to_json(None)).unwrap();
        assert_eq!(id, None);
        assert_eq!(back, err);
        assert!(parse_response(&Json::obj(vec![])).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The request parser must never panic on arbitrary JSON shapes —
        /// the TCP path feeds it untrusted bytes.
        #[test]
        fn parser_never_panics(bytes in proptest::collection::vec(32u8..127, 0..200)) {
            let s = String::from_utf8(bytes).expect("ascii");
            if let Ok(v) = sgl_observe::parse_json(&s) {
                let _ = parse_request(&v);
            }
        }

        /// The direct row renderer is byte-identical to rendering the
        /// `distances_json` tree, and its text decodes back to the row —
        /// over rows mixing unreachable, zero, `Len::MAX`, short and long
        /// entries, the empty row included.
        #[test]
        fn render_distances_matches_the_tree_and_round_trips(
            picks in proptest::collection::vec((0u8..5, 0..=Len::MAX), 0..64)
        ) {
            let row: Vec<Option<Len>> = picks
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => None,
                    1 => Some(0),
                    2 => Some(Len::MAX),
                    3 => Some(v % 1000),
                    _ => Some(v),
                })
                .collect();
            let text = render_distances(&row);
            prop_assert_eq!(&text, &distances_json(&row).to_string());
            let parsed = sgl_observe::parse_json(&text).map_err(|e| e.to_string())?;
            prop_assert_eq!(parse_distances(&parsed)?, row);
        }
    }
}
