//! Quickstart: build a PAST network, insert a file, look it up from
//! another node, then reclaim its storage.
//!
//! Run: `cargo run --release --example quickstart`

use past::core::{BuildMode, ContentRef, PastConfig, PastNetwork, PastOut};
use past::crypto::rng::Rng;
use past::netsim::Sphere;
use past::pastry::{random_ids, Config};

fn main() {
    // 1. Build a 64-node PAST network on a simulated sphere topology.
    //    Every node gets a broker-issued smartcard: a 1 GiB usage quota
    //    and 64 MiB of contributed storage.
    let n = 64;
    let seed = 2001;
    let mut rng = Rng::seed_from_u64(seed);
    let ids = random_ids(n, &mut rng);
    let mut net = PastNetwork::build(
        Sphere::new(n, seed),
        Config {
            leaf_len: 16,
            neighborhood_len: 16,
            ..Config::default()
        },
        PastConfig::default(),
        seed,
        &ids,
        &vec![64 << 20; n],
        &vec![1 << 30; n],
        BuildMode::ProtocolJoins,
    );
    println!("built a {n}-node PAST network by sequential protocol joins");
    println!(
        "  overlay traffic so far: {} messages",
        net.sim.engine.stats().total_msgs
    );

    // 2. Insert a file with k = 3 replicas from node 5.
    let data = b"The quick brown fox archives itself for posterity.".repeat(1000);
    let content = ContentRef::from_bytes(&data);
    let request = net
        .insert(5, "fox/archive.txt", content, 3)
        .expect("within quota");
    for (at, _, e) in net.run() {
        if let PastOut::InsertOk {
            request_id,
            file_id,
            attempts,
            receipts,
        } = e
        {
            assert_eq!(request_id, request);
            println!("insert complete at t={at}:");
            println!("  fileId      = {file_id}");
            println!("  receipts    = {receipts} (k copies verified by the client)");
            println!("  attempts    = {attempts}");
            // Remember the fileId for the rest of the demo.
            demo_rest(&mut net, file_id);
            return;
        }
    }
    panic!("insert did not complete");
}

fn demo_rest(net: &mut PastNetwork<Sphere>, file_id: past::core::FileId) {
    // 3. Any node can retrieve the file given its fileId; the route stops
    //    at the first replica (or cache) it meets.
    net.lookup(40, file_id);
    for (at, _, e) in net.run() {
        if let PastOut::LookupOk {
            server, from_cache, ..
        } = e
        {
            println!("lookup from node 40 served by node {server} at t={at} (cache: {from_cache})");
        }
    }
    println!(
        "  replicas live on nodes {:?}",
        net.replica_holders(&file_id)
    );

    // 4. Only the owner can reclaim; receipts credit the quota.
    let before = net.sim.engine.node(5).app.card.quota_remaining();
    net.reclaim(5, file_id);
    let mut credited = 0u64;
    for (_, _, e) in net.run() {
        if let PastOut::ReclaimCredited { freed, .. } = e {
            credited += freed;
        }
    }
    let after = net.sim.engine.node(5).app.card.quota_remaining();
    println!("reclaim credited {credited} bytes back to the owner's smartcard");
    println!("  quota: {before} -> {after}");
    assert!(net.replica_holders(&file_id).is_empty());
    println!("done: the storage is free again (the fileId is never reused).");
}
