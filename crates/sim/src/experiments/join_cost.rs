//! E6 — protocol cost of node arrival.
//!
//! Paper claim: "after a node failure or the arrival of a new node, the
//! invariants in all affected routing tables can be restored by
//! exchanging O(log_2^b N) messages."

use crate::common::ids;
use crate::report::{f2, ExpTable};
use past_pastry::{Config, NullApp};

/// Parameters for E6.
#[derive(Clone, Debug)]
pub struct Params {
    /// Base network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Joins measured per size.
    pub joins: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Pastry configuration.
    pub cfg: Config,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            sizes: vec![256, 1_024, 4_096],
            joins: 20,
            seed: 92,
            cfg: Config::default(),
        }
    }
}

impl Params {
    /// Paper-scale sweep.
    pub fn paper() -> Params {
        Params {
            sizes: vec![1_000, 4_000, 16_000, 64_000],
            joins: 50,
            ..Params::default()
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Base network size.
    pub n: usize,
    /// Mean protocol messages per join (request, rows, reply, announces).
    pub msgs_per_join: f64,
    /// Mean join-route hops.
    pub join_hops: f64,
    /// log_2^b N for comparison.
    pub log_n: f64,
}

/// E6 result.
#[derive(Clone, Debug)]
pub struct Result {
    /// One row per size.
    pub rows: Vec<Row>,
}

/// Runs E6.
pub fn run(p: &Params) -> Result {
    let mut rows = Vec::new();
    for (i, &n) in p.sizes.iter().enumerate() {
        let seed = p.seed + i as u64;
        let all_ids = ids(n + p.joins, seed);
        // Build the base network from the first n ids; the rest join via
        // the protocol so their cost can be measured.
        let mut sim = past_pastry::static_build(
            past_netsim::Sphere::new(n + p.joins, seed),
            p.cfg,
            seed,
            &all_ids[..n],
            |_| NullApp,
            2,
        );
        let mut total_msgs = 0u64;
        let mut total_hops = 0u64;
        for j in 0..p.joins {
            let before = sim.engine.stats().total_msgs;
            let addr = sim.join_node_nearby(all_ids[n + j], NullApp, 8);
            total_msgs += sim.engine.stats().total_msgs - before;
            total_hops += sim.engine.node(addr).join_hops.unwrap_or(0) as u64;
        }
        rows.push(Row {
            n,
            msgs_per_join: total_msgs as f64 / p.joins as f64,
            join_hops: total_hops as f64 / p.joins as f64,
            log_n: (n as f64).log(p.cfg.cols() as f64),
        });
    }
    Result { rows }
}

impl Result {
    /// Renders the table.
    pub fn table(&self) -> ExpTable {
        let mut t = ExpTable::new(
            "E6: messages to integrate one arriving node",
            &["N", "msgs/join", "join hops", "log16 N"],
        );
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                f2(r.msgs_per_join),
                f2(r.join_hops),
                f2(r.log_n),
            ]);
        }
        t.note("paper: O(log_2^b N) messages restore all invariants after an arrival");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_cost_grows_logarithmically() {
        let p = Params {
            sizes: vec![128, 2_048],
            joins: 10,
            ..Params::default()
        };
        let r = run(&p);
        // 16x nodes must cost much less than 16x messages.
        let growth = r.rows[1].msgs_per_join / r.rows[0].msgs_per_join;
        assert!(growth < 4.0, "join cost growth {growth} not logarithmic");
        assert!(r.rows[0].msgs_per_join > 5.0, "joins do send messages");
        assert!(r.rows[1].join_hops >= r.rows[0].join_hops);
    }
}
