//! Chord baseline (Stoica et al., SIGCOMM 2001).
//!
//! The PAST paper positions Chord as the closest relative: "instead of
//! routing based on address prefixes, Chord forwards messages based on
//! numerical difference with the destination address. Unlike Pastry, Chord
//! makes no explicit effort to achieve good network locality." This module
//! implements Chord's finger-table routing over the same simulator and
//! topologies so the comparison (E11) runs on equal footing.

use past_netsim::{Addr, Ctx, Engine, Message, NodeLogic, SimTime, Topology};
use past_pastry::Id;

/// Number of finger-table entries (one per id bit).
pub const M_BITS: usize = 128;

/// A Chord lookup in flight.
#[derive(Clone, Debug)]
pub struct ChordLookup {
    /// The sought key.
    pub key: Id,
    /// The originating node.
    pub origin: Addr,
    /// Hops so far.
    pub hops: u32,
    /// Accumulated path delay (µs).
    pub path_us: u64,
    /// Set when the previous hop determined the receiver is responsible.
    pub terminal: bool,
}

/// Chord wire messages.
#[derive(Clone, Debug)]
pub enum ChordMsg {
    /// A lookup making its way around the ring.
    Lookup(ChordLookup),
}

impl Message for ChordMsg {
    const KINDS: &'static [&'static str] = &["chord_lookup"];

    fn kind_id(&self) -> usize {
        let ChordMsg::Lookup(_) = self;
        0
    }

    fn wire_size(&self) -> u64 {
        // Exact encoded length from the codec in `crate::wire`.
        use past_wire::Wire;
        self.encoded_len()
    }
}

/// A delivered Chord lookup.
#[derive(Clone, Copy, Debug)]
pub struct ChordDelivery {
    /// The sought key.
    pub key: Id,
    /// The originating node.
    pub origin: Addr,
    /// The responsible node that received the lookup.
    pub delivered_at: Addr,
    /// Overlay hops.
    pub hops: u32,
    /// Total path delay (µs).
    pub path_us: u64,
    /// Completion time.
    pub at: SimTime,
}

/// One Chord node: successor pointer, finger table, successor list.
pub struct ChordNode {
    /// This node's id.
    pub id: Id,
    /// Finger `i` targets `id + 2^i`; entries are deduplicated.
    fingers: Vec<(Id, Addr)>,
    /// Immediate successor.
    successor: (Id, Addr),
}

impl ChordNode {
    /// True if `key` falls in the half-open ring interval `(self, succ]`.
    fn owns_via_successor(&self, key: &Id) -> bool {
        // key in (n, succ]: cw distance from n to key <= cw dist to succ,
        // and key != n.
        let to_key = self.id.cw_dist(key);
        let to_succ = self.id.cw_dist(&self.successor.0);
        to_key != 0 && to_key <= to_succ
    }

    /// Closest preceding finger for `key`: the finger farthest along the
    /// ring that still precedes `key`.
    fn closest_preceding(&self, key: &Id) -> Option<(Id, Addr)> {
        let span = self.id.cw_dist(key);
        self.fingers
            .iter()
            .filter(|(fid, _)| {
                let d = self.id.cw_dist(fid);
                d > 0 && d < span
            })
            .max_by_key(|(fid, _)| self.id.cw_dist(fid))
            .copied()
    }
}

impl NodeLogic for ChordNode {
    type Msg = ChordMsg;
    type Out = ChordDelivery;

    fn on_message(
        &mut self,
        _from: Addr,
        msg: ChordMsg,
        ctx: &mut Ctx<'_, ChordMsg, ChordDelivery>,
    ) {
        let ChordMsg::Lookup(mut lk) = msg;
        // Am I the responsible node? Either the previous hop determined
        // succ(key) = me, or the key hits my id exactly.
        let to_key = self.id.cw_dist(&lk.key);
        if lk.terminal || to_key == 0 || self.successor.1 == ctx.me {
            ctx.emit(ChordDelivery {
                key: lk.key,
                origin: lk.origin,
                delivered_at: ctx.me,
                hops: lk.hops,
                path_us: lk.path_us,
                at: ctx.now,
            });
            return;
        }
        if self.owns_via_successor(&lk.key) {
            // The successor is responsible: final hop.
            let (_, saddr) = self.successor;
            lk.hops += 1;
            lk.path_us += ctx.delay_to(saddr);
            lk.terminal = true;
            ctx.send(saddr, ChordMsg::Lookup(lk));
            return;
        }
        match self.closest_preceding(&lk.key) {
            Some((_, faddr)) => {
                lk.hops += 1;
                lk.path_us += ctx.delay_to(faddr);
                ctx.send(faddr, ChordMsg::Lookup(lk));
            }
            None => {
                // No finger precedes the key: fall back to the successor.
                let (_, saddr) = self.successor;
                lk.hops += 1;
                lk.path_us += ctx.delay_to(saddr);
                ctx.send(saddr, ChordMsg::Lookup(lk));
            }
        }
    }
}

/// A Chord ring bound to the simulator engine.
pub struct ChordSim<T: Topology> {
    /// The underlying engine.
    pub engine: Engine<ChordNode, T>,
}

impl<T: Topology + Clone> ChordSim<T> {
    /// Builds a stabilized ring statically from `ids` (node `i` at
    /// topology slot `i`).
    pub fn build(topo: T, seed: u64, ids: &[Id]) -> ChordSim<T> {
        let n = ids.len();
        assert!(n > 0);
        let mut sorted: Vec<(Id, Addr)> = ids.iter().enumerate().map(|(a, &id)| (id, a)).collect();
        sorted.sort_by_key(|(id, _)| id.0);

        // succ(x): first node clockwise at or after x.
        let succ_of = |x: u128| -> (Id, Addr) {
            let pos = sorted.partition_point(|(id, _)| id.0 < x);
            sorted[pos % n]
        };

        let mut nodes: Vec<Option<ChordNode>> = (0..n).map(|_| None).collect();
        for &(id, addr) in &sorted {
            let successor = succ_of(id.0.wrapping_add(1));
            let mut fingers = Vec::with_capacity(M_BITS);
            let mut last: Option<Addr> = None;
            for i in 0..M_BITS {
                let target = id.0.wrapping_add(1u128 << i);
                let f = succ_of(target);
                if f.1 == addr {
                    continue;
                }
                if last != Some(f.1) {
                    fingers.push(f);
                    last = Some(f.1);
                }
            }
            nodes[addr] = Some(ChordNode {
                id,
                fingers,
                successor,
            });
        }
        let nodes: Vec<ChordNode> = nodes.into_iter().map(|o| o.expect("filled")).collect();
        ChordSim {
            engine: Engine::new(topo, nodes, seed),
        }
    }

    /// Starts a lookup for `key` from node `from`.
    pub fn lookup(&mut self, from: Addr, key: Id) {
        self.engine.inject(
            from,
            from,
            ChordMsg::Lookup(ChordLookup {
                key,
                origin: from,
                hops: 0,
                path_us: 0,
                terminal: false,
            }),
            0,
        );
    }

    /// Runs to quiescence and returns deliveries.
    pub fn drain(&mut self) -> Vec<ChordDelivery> {
        self.engine.run_until_quiet(10_000_000);
        self.engine
            .drain_outputs()
            .into_iter()
            .map(|(_, _, d)| d)
            .collect()
    }

    /// Ground truth: the node responsible for `key` (its successor).
    pub fn true_successor(&self, key: &Id) -> Addr {
        (0..self.engine.len())
            .min_by_key(|&a| {
                let id = self.engine.node(a).id;
                // succ(key): smallest cw distance from key to node.
                key.cw_dist(&id)
            })
            .expect("non-empty ring")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::rng::Rng;
    use past_netsim::Sphere;
    use past_pastry::random_ids;

    fn build(n: usize, seed: u64) -> ChordSim<Sphere> {
        let mut rng = Rng::seed_from_u64(seed);
        let ids = random_ids(n, &mut rng);
        ChordSim::build(Sphere::new(n, seed), seed, &ids)
    }

    #[test]
    fn lookups_reach_the_successor() {
        let mut sim = build(100, 1);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..100 {
            let key = Id(rng.random());
            let from = rng.random_range(0..100);
            sim.lookup(from, key);
            let recs = sim.drain();
            assert_eq!(recs.len(), 1);
            assert_eq!(
                recs[0].delivered_at,
                sim.true_successor(&key),
                "lookup must land on succ(key)"
            );
        }
    }

    #[test]
    fn hops_scale_as_half_log2_n() {
        let mut sim = build(1024, 2);
        let mut rng = Rng::seed_from_u64(8);
        let mut hops = 0u64;
        let trials = 400;
        for _ in 0..trials {
            let key = Id(rng.random());
            let from = rng.random_range(0..1024);
            sim.lookup(from, key);
            hops += sim.drain()[0].hops as u64;
        }
        let avg = hops as f64 / trials as f64;
        // Chord's classic result: ~0.5 * log2(N) = 5 for N = 1024.
        assert!((3.0..7.5).contains(&avg), "avg hops {avg} out of range");
    }

    #[test]
    fn self_lookup_zero_hops() {
        let mut sim = build(50, 3);
        let key = sim.engine.node(7).id;
        sim.lookup(7, key);
        let recs = sim.drain();
        assert_eq!(recs[0].delivered_at, 7);
        assert_eq!(recs[0].hops, 0);
    }

    #[test]
    fn single_node_ring() {
        let mut sim = build(1, 4);
        sim.lookup(0, Id(12345));
        let recs = sim.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].delivered_at, 0);
    }
}
