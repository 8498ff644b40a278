//! Pastry wire messages.

use crate::handle::NodeHandle;
use crate::id::Id;
use past_netsim::{Addr, Message, OpId};
use past_wire::Wire;

/// A routed application message in flight.
#[derive(Clone, Debug)]
pub struct RouteEnvelope<P> {
    /// Destination key (a fileId's 128 most-significant bits, or a nodeId).
    pub key: Id,
    /// Application payload.
    pub payload: P,
    /// Address of the node that originated the route.
    pub origin: Addr,
    /// Overlay hops taken so far (incremented on each forward).
    pub hops: u32,
    /// Accumulated network delay along the path, microseconds.
    pub path_us: u64,
}

/// The Pastry protocol message set, generic over the application payload.
#[derive(Clone, Debug)]
pub enum PastryMsg<P> {
    /// A routed application message.
    Route(RouteEnvelope<P>),
    /// A join request being routed toward the joiner's id, accumulating
    /// routing-table rows along the path.
    JoinRequest {
        /// The joining node.
        joiner: NodeHandle,
        /// Routing-table entries collected along the path ("the i-th row
        /// of the routing table from the i-th node encountered").
        rows: Vec<NodeHandle>,
        /// Highest row index already contributed.
        rows_done: usize,
        /// Hops taken so far.
        hops: u32,
    },
    /// Z's answer to the joiner: collected rows plus Z's leaf set.
    JoinReply {
        /// The numerically closest existing node.
        z: NodeHandle,
        /// Entries collected along the join route.
        rows: Vec<NodeHandle>,
        /// Z's leaf set (plus Z itself).
        leaf: Vec<NodeHandle>,
        /// Join route length.
        hops: u32,
    },
    /// Ask a nearby node for its neighborhood set.
    NeighborhoodRequest,
    /// The neighborhood set (plus the replying node).
    NeighborhoodReply {
        /// Members of the replier's neighborhood set.
        members: Vec<NodeHandle>,
    },
    /// A newly joined node announcing itself so that "interested nodes
    /// that need to know of its arrival" update their state.
    Announce {
        /// The announcing node.
        from: NodeHandle,
    },
    /// Ask for the receiver's leaf set (leaf-set repair).
    LeafRequest,
    /// The receiver's leaf set (plus itself).
    LeafReply {
        /// Members of the replier's leaf set.
        members: Vec<NodeHandle>,
    },
    /// Ask for the receiver's routing-table row (table improvement).
    RowRequest {
        /// Row index requested.
        row: usize,
    },
    /// Entries of the requested row.
    RowReply {
        /// Populated entries of the row.
        entries: Vec<NodeHandle>,
    },
    /// Ask for a replacement routing-table entry (lazy repair).
    RepairRequest {
        /// Row of the vacated slot.
        row: usize,
        /// Column of the vacated slot.
        col: usize,
    },
    /// A replacement entry, if the replier has one.
    RepairReply {
        /// The replier's entry for that slot.
        entry: Option<NodeHandle>,
    },
    /// Leaf-set liveness probe.
    Heartbeat,
    /// Probe acknowledgment.
    HeartbeatAck,
    /// A direct (non-routed) application message.
    AppDirect {
        /// Application payload.
        payload: P,
    },
}

impl<P: Clone + PayloadSize + Send> Message for PastryMsg<P> {
    const KINDS: &'static [&'static str] = &[
        "route",
        "join_request",
        "join_reply",
        "neighborhood_request",
        "neighborhood_reply",
        "announce",
        "leaf_request",
        "leaf_reply",
        "row_request",
        "row_reply",
        "repair_request",
        "repair_reply",
        "heartbeat",
        "heartbeat_ack",
        "app_direct",
    ];

    fn kind_id(&self) -> usize {
        match self {
            PastryMsg::Route(_) => 0,
            PastryMsg::JoinRequest { .. } => 1,
            PastryMsg::JoinReply { .. } => 2,
            PastryMsg::NeighborhoodRequest => 3,
            PastryMsg::NeighborhoodReply { .. } => 4,
            PastryMsg::Announce { .. } => 5,
            PastryMsg::LeafRequest => 6,
            PastryMsg::LeafReply { .. } => 7,
            PastryMsg::RowRequest { .. } => 8,
            PastryMsg::RowReply { .. } => 9,
            PastryMsg::RepairRequest { .. } => 10,
            PastryMsg::RepairReply { .. } => 11,
            PastryMsg::Heartbeat => 12,
            PastryMsg::HeartbeatAck => 13,
            PastryMsg::AppDirect { .. } => 14,
        }
    }

    fn wire_size(&self) -> u64 {
        // Not an estimate: the exact length `Wire::encode` produces.
        // The per-variant arithmetic lives in `encoded_len`
        // (crate::wire), which the codec round-trip tests pin against
        // `encode().len()` for every variant.
        self.encoded_len()
    }

    fn op_id(&self) -> OpId {
        // Only application traffic can belong to a client operation;
        // overlay maintenance never does. Every maintenance variant is
        // named (rule M1): a new variant must decide its attribution
        // here explicitly instead of falling into a wildcard.
        match self {
            PastryMsg::Route(env) => env.payload.op_id(),
            PastryMsg::AppDirect { payload } => payload.op_id(),
            PastryMsg::JoinRequest { .. }
            | PastryMsg::JoinReply { .. }
            | PastryMsg::NeighborhoodRequest
            | PastryMsg::NeighborhoodReply { .. }
            | PastryMsg::Announce { .. }
            | PastryMsg::LeafRequest
            | PastryMsg::LeafReply { .. }
            | PastryMsg::RowRequest { .. }
            | PastryMsg::RowReply { .. }
            | PastryMsg::RepairRequest { .. }
            | PastryMsg::RepairReply { .. }
            | PastryMsg::Heartbeat
            | PastryMsg::HeartbeatAck => OpId::NONE,
        }
    }
}

/// Application payload contract: a byte codec plus trace attribution.
///
/// `Wire` is a supertrait so that a `PastryMsg<P>` frame (and with it
/// the engine's bandwidth accounting) always has an exact encoded
/// length; `payload_size` is that length, kept as a named method for
/// harness code that reasons about payloads without framing.
pub trait PayloadSize: Wire {
    /// Exact encoded size in bytes.
    fn payload_size(&self) -> u64 {
        self.encoded_len()
    }

    /// The client operation this payload belongs to, for causal trace
    /// attribution (default: none). Carried up into
    /// [`Message::op_id`] by both routed and direct Pastry frames.
    fn op_id(&self) -> OpId {
        OpId::NONE
    }
}

impl PayloadSize for () {}
impl PayloadSize for u32 {}
impl PayloadSize for u64 {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_for_accounting() {
        let msgs: Vec<PastryMsg<u32>> = vec![
            PastryMsg::Route(RouteEnvelope {
                key: Id(1),
                payload: 7,
                origin: 0,
                hops: 0,
                path_us: 0,
            }),
            PastryMsg::NeighborhoodRequest,
            PastryMsg::LeafRequest,
            PastryMsg::Heartbeat,
            PastryMsg::HeartbeatAck,
            PastryMsg::AppDirect { payload: 7 },
        ];
        let kinds: std::collections::HashSet<&str> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), msgs.len());
    }

    /// One constructed sample of every variant. The `match` below is
    /// intentionally exhaustive *without* a `_` arm: adding a variant to
    /// `PastryMsg` fails compilation here until a sample (and therefore a
    /// kind id and a `KINDS` label) is provided for it.
    fn all_variants() -> Vec<PastryMsg<u32>> {
        let h = NodeHandle::new(Id(1), 0);
        let samples: Vec<PastryMsg<u32>> = vec![
            PastryMsg::Route(RouteEnvelope {
                key: Id(1),
                payload: 7,
                origin: 0,
                hops: 0,
                path_us: 0,
            }),
            PastryMsg::JoinRequest {
                joiner: h,
                rows: vec![],
                rows_done: 0,
                hops: 0,
            },
            PastryMsg::JoinReply {
                z: h,
                rows: vec![],
                leaf: vec![],
                hops: 0,
            },
            PastryMsg::NeighborhoodRequest,
            PastryMsg::NeighborhoodReply { members: vec![] },
            PastryMsg::Announce { from: h },
            PastryMsg::LeafRequest,
            PastryMsg::LeafReply { members: vec![] },
            PastryMsg::RowRequest { row: 0 },
            PastryMsg::RowReply { entries: vec![] },
            PastryMsg::RepairRequest { row: 0, col: 0 },
            PastryMsg::RepairReply { entry: None },
            PastryMsg::Heartbeat,
            PastryMsg::HeartbeatAck,
            PastryMsg::AppDirect { payload: 7 },
        ];
        for m in &samples {
            match m {
                PastryMsg::Route(_)
                | PastryMsg::JoinRequest { .. }
                | PastryMsg::JoinReply { .. }
                | PastryMsg::NeighborhoodRequest
                | PastryMsg::NeighborhoodReply { .. }
                | PastryMsg::Announce { .. }
                | PastryMsg::LeafRequest
                | PastryMsg::LeafReply { .. }
                | PastryMsg::RowRequest { .. }
                | PastryMsg::RowReply { .. }
                | PastryMsg::RepairRequest { .. }
                | PastryMsg::RepairReply { .. }
                | PastryMsg::Heartbeat
                | PastryMsg::HeartbeatAck
                | PastryMsg::AppDirect { .. } => {}
            }
        }
        samples
    }

    /// Every variant must map to a distinct, in-range kind id, and the
    /// `KINDS` table must cover exactly those ids: a new message kind
    /// added without extending the table (or vice versa) fails here.
    #[test]
    fn kind_ids_are_a_permutation_of_the_kinds_table() {
        let samples = all_variants();
        assert_eq!(samples.len(), PastryMsg::<u32>::KINDS.len());
        let mut seen = vec![false; PastryMsg::<u32>::KINDS.len()];
        for m in &samples {
            let id = m.kind_id();
            assert!(id < seen.len(), "kind_id {id} out of KINDS range");
            assert!(!seen[id], "kind_id {id} assigned twice");
            seen[id] = true;
            assert_eq!(m.kind(), PastryMsg::<u32>::KINDS[id]);
        }
        assert!(
            seen.iter().all(|&s| s),
            "every KINDS entry must be reachable"
        );
    }

    #[test]
    fn only_app_traffic_carries_an_op_id() {
        for m in all_variants() {
            assert_eq!(m.op_id(), OpId::NONE, "u32 payloads carry no op id");
        }
    }

    #[test]
    fn wire_size_grows_with_contents() {
        let small: PastryMsg<u32> = PastryMsg::LeafReply { members: vec![] };
        let big: PastryMsg<u32> = PastryMsg::LeafReply {
            members: vec![NodeHandle::new(Id(0), 0); 16],
        };
        assert!(big.wire_size() > small.wire_size());
    }
}
