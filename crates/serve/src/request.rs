//! The request model: what a tenant submits and what the server returns.
//!
//! A [`LookupRequest`] is one client's batch of probe keys against the
//! served relation — the serving-layer analogue of one tiny probe-side
//! stream in the paper's join (§5.1). Responses carry the per-request match
//! set plus virtual-time latency accounting, so latency–throughput curves
//! come straight out of a served trace.

use serde::Serialize;

/// Identifies one client/tenant of the server.
pub type TenantId = u32;

/// One client lookup: probe the served relation with `keys`.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupRequest {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Probe keys. Keys need not exist in the served relation; misses
    /// simply produce no match.
    pub keys: Vec<u64>,
    /// Optional latency budget in virtual seconds from submission.
    /// Responses completing later are marked
    /// [`RequestOutcome::DeadlineMissed`] (results are still returned).
    pub deadline: Option<f64>,
}

impl LookupRequest {
    /// A request with no deadline.
    pub fn new(tenant: TenantId, keys: Vec<u64>) -> Self {
        LookupRequest {
            tenant,
            keys,
            deadline: None,
        }
    }
}

/// How a request left the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RequestOutcome {
    /// All keys were probed and matches returned within the deadline (or no
    /// deadline was set).
    Completed,
    /// All keys were probed but completion came after the request's
    /// deadline; the match set is still valid.
    DeadlineMissed,
    /// The request was shed — by admission control (queue over the
    /// backpressure bound) or because its dispatch could not complete even
    /// after degradation. No matches are returned.
    Shed,
}

/// The server's answer to one [`LookupRequest`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LookupResponse {
    /// Server-assigned request id (arrival order over the whole trace).
    pub request: u64,
    /// The submitting tenant (echoed for demultiplexing checks).
    pub tenant: TenantId,
    /// How the request left the server.
    pub outcome: RequestOutcome,
    /// Matches as `(probe key, index position)` pairs, in probe order per
    /// dispatched window. Empty for shed requests and full misses.
    pub matches: Vec<(u64, u64)>,
    /// Virtual time the request arrived.
    pub submitted_s: f64,
    /// Virtual time the response was produced.
    pub completed_s: f64,
    /// `completed_s - submitted_s`: queueing delay (including deliberate
    /// batching delay) plus service time, in virtual seconds.
    pub latency_s: f64,
}

impl LookupResponse {
    /// Answer request `request` at `now_s` with `matches`: completed, or
    /// deadline-missed when the latency exceeds the request's `deadline`.
    pub(crate) fn answered(
        request: u64,
        tenant: TenantId,
        deadline: Option<f64>,
        submitted_s: f64,
        now_s: f64,
        matches: Vec<(u64, u64)>,
    ) -> Self {
        let latency_s = now_s - submitted_s;
        let outcome = match deadline {
            Some(d) if latency_s > d => RequestOutcome::DeadlineMissed,
            _ => RequestOutcome::Completed,
        };
        LookupResponse {
            request,
            tenant,
            outcome,
            matches,
            submitted_s,
            completed_s: now_s,
            latency_s,
        }
    }

    /// Shed request `request` at `now_s`: no matches.
    pub(crate) fn shed_response(
        request: u64,
        tenant: TenantId,
        submitted_s: f64,
        now_s: f64,
    ) -> Self {
        LookupResponse {
            request,
            tenant,
            outcome: RequestOutcome::Shed,
            matches: Vec::new(),
            submitted_s,
            completed_s: now_s,
            latency_s: now_s - submitted_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_serializes() {
        let resp = LookupResponse {
            request: 1,
            tenant: 2,
            outcome: RequestOutcome::Completed,
            matches: vec![(10, 5)],
            submitted_s: 0.0,
            completed_s: 1.0,
            latency_s: 1.0,
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"outcome\":\"Completed\""), "{json}");
        assert!(json.contains("[[10,5]]"), "{json}");
    }
}
