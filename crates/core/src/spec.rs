//! Wire-nameable query specifications.
//!
//! A [`crate::serve::GrapeServer`] registers queries through the generic
//! [`crate::pie::IncrementalPie`] machinery — perfect in-process, but a
//! network front door needs queries that can be *named* in a frame: a
//! client says "SSSP from source 3", not "here is a monomorphized program
//! type".  [`QuerySpec`] is that name: a small, serializable, data-only
//! enum of the query families a daemon can serve.  The daemon maps a spec
//! onto the concrete PIE program (which lives in `grape-algorithms`; this
//! crate deliberately only knows the *shape* of the request, keeping the
//! core → algorithms dependency direction intact).
//!
//! A spec serializes as a map internally tagged under `query` —
//! `{"query":"sssp","source":3}`, `{"query":"cc"}` — which is also exactly
//! what the daemon's JSON protocol puts on the wire.

use grape_graph::types::VertexId;
use serde::{Deserialize, Serialize};

/// A query family a serving process can register by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "query", rename_all = "snake_case")]
pub enum QuerySpec {
    /// Single-source shortest path from `source`.
    Sssp {
        /// The source vertex.
        source: VertexId,
    },
    /// Connected components (one label per vertex).
    Cc,
}

impl QuerySpec {
    /// The spec's wire tag (`"sssp"`, `"cc"`): stable, lower-case, what a
    /// CLI accepts as the query-kind argument.
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::Sssp { .. } => "sssp",
            QuerySpec::Cc => "cc",
        }
    }
}

impl std::fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySpec::Sssp { source } => write!(f, "sssp(source={source})"),
            QuerySpec::Cc => write!(f, "cc"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_the_value_encoding() {
        for spec in [QuerySpec::Sssp { source: 42 }, QuerySpec::Cc] {
            let back = QuerySpec::from_value(&spec.to_value()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let json = serde_json::to_string(&QuerySpec::Sssp { source: 3 }).unwrap();
        assert_eq!(json, r#"{"query":"sssp","source":3}"#);
        let back: QuerySpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, QuerySpec::Sssp { source: 3 });
    }

    #[test]
    fn unknown_or_malformed_specs_are_rejected() {
        let bad: Result<QuerySpec, _> = serde_json::from_str(r#"{"query":"bfs"}"#);
        assert!(bad
            .unwrap_err()
            .to_string()
            .contains("unknown variant `bfs`"));
        let missing: Result<QuerySpec, _> = serde_json::from_str(r#"{"query":"sssp"}"#);
        assert!(missing.unwrap_err().to_string().contains("source"));
        let untagged: Result<QuerySpec, _> = serde_json::from_str(r#"{"source":3}"#);
        assert!(untagged.unwrap_err().to_string().contains("query"));
    }

    #[test]
    fn kind_equals_the_derived_wire_tag() {
        for spec in [QuerySpec::Sssp { source: 7 }, QuerySpec::Cc] {
            let value = spec.to_value();
            let tag = value.get_field("query").and_then(|v| v.as_str());
            assert_eq!(Some(spec.kind()), tag, "{spec:?}");
        }
    }

    #[test]
    fn kind_and_display_are_stable() {
        assert_eq!(QuerySpec::Sssp { source: 7 }.kind(), "sssp");
        assert_eq!(QuerySpec::Cc.kind(), "cc");
        assert_eq!(QuerySpec::Sssp { source: 7 }.to_string(), "sssp(source=7)");
        assert_eq!(QuerySpec::Cc.to_string(), "cc");
    }
}
