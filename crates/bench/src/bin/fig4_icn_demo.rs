//! Demonstrates the paper's **Figure 4** ICN model: one virtual network
//! modeled as a pair of global FIFO buffers plus per-endpoint input
//! FIFOs.
//!
//! Two claims are exercised:
//!
//! 1. **Unordered mode manifests reordering**: two messages from the
//!    same source to the same destination can arrive in either order
//!    (by taking different global buffers).
//! 2. **Point-to-point mode preserves pair order**: with a static
//!    (src, dst) → buffer mapping, same-pair messages stay FIFO.
//!
//! The witness uses two GetS requests (for blocks X and Y) sent to a
//! directory that is blocked in `S_D` for both blocks — consumption
//! stalls, so exactly the ICN movement rules are explored.

use vnet_mc::rules::{successors, Expansion};
use vnet_mc::{GlobalState, IcnOrder, McConfig, Msg, Node};
use vnet_protocol::protocols;

/// Enumerates all reachable arrival orders at the directory's input FIFO
/// for two requests injected back to back from C1.
fn arrival_orders(order: IcnOrder) -> std::collections::BTreeSet<Vec<u8>> {
    let spec = protocols::msi_blocking_cache();
    let mut cfg = McConfig::general(&spec).with_order(order);
    cfg.n_caches = 1;
    cfg.n_addrs = 2;
    cfg.n_dirs = 1;
    cfg.budget = vnet_mc::InjectionBudget::PerCache(0);
    let mut init = GlobalState::initial(&spec, &cfg);

    // Block the directory for both addresses so the requests stall.
    let s_d = spec.directory().state_by_name("S_D").unwrap();
    init.update_dir(0, |d| d.state = s_d.index() as u8);
    init.update_dir(1, |d| d.state = s_d.index() as u8);
    // (S_D expects a Data writeback eventually; for this ICN-only demo
    // the directory simply stays blocked.)

    let gets = spec.message_by_name("GetS").unwrap();
    let vn = cfg.vns.vn_of(gets);
    for (addr, tag) in [(0u8, 0usize), (1u8, 1usize)] {
        let m = Msg {
            msg: gets.index() as u8,
            addr,
            src: Node::Cache(0),
            dst: Node::Dir(0),
            requestor: 0,
            ack: 0,
        };
        // Sender-side buffer choice: worst case (different buffers) for
        // the unordered run; the static mapping for the p2p run.
        let b = match order {
            IcnOrder::Unordered => tag,
            IcnOrder::PointToPoint { salt } => vnet_mc::rules::p2p_buffer(m.src, m.dst, salt),
        };
        assert!(init.push_back(vn * 2 + b, m), "global buffer full");
    }

    let n_vns = cfg.vns.n_vns();
    let dir_fifo = init.fifo_queue(Node::Dir(0).index(cfg.n_caches) * n_vns + vn);
    let mut orders = std::collections::BTreeSet::new();
    let mut stack = vec![init];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(gs) = stack.pop() {
        if !seen.insert(gs.encode()) {
            continue;
        }
        let fifo = gs.queue(dir_fifo);
        if fifo.len() == 2 {
            orders.insert(fifo.iter().map(|m| m.addr).collect());
            continue;
        }
        match successors(&spec, &cfg, &gs) {
            Expansion::Ok(succs) => stack.extend(succs.into_iter().map(|s| s.state)),
            Expansion::Bug { rule, detail } => panic!("model bug: {rule}: {detail}"),
        }
    }
    orders
}

fn main() {
    println!("Figure 4 — the two-global-buffer ICN model\n");

    let unordered = arrival_orders(IcnOrder::Unordered);
    println!("unordered VN, two same-src/same-dst requests (X sent before Y):");
    for o in &unordered {
        let names: Vec<String> = o.iter().map(|a| ((b'X' + a) as char).to_string()).collect();
        println!("  arrival order at the directory: {}", names.join(" then "));
    }
    assert_eq!(unordered.len(), 2, "unordered mode must manifest both orders");
    println!("  → both orders reachable: arbitrary-topology reordering is covered.\n");

    let p2p = arrival_orders(IcnOrder::PointToPoint { salt: 0 });
    println!("point-to-point ordered VN, same two requests:");
    for o in &p2p {
        let names: Vec<String> = o.iter().map(|a| ((b'X' + a) as char).to_string()).collect();
        println!("  arrival order at the directory: {}", names.join(" then "));
    }
    assert_eq!(p2p.len(), 1, "p2p mode must preserve pair order");
    assert_eq!(p2p.iter().next().unwrap(), &vec![0u8, 1u8]);
    println!("  → exactly the send order reachable: point-to-point order preserved.");
}
