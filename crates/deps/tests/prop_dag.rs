//! Property-based tests for dependence-graph construction.

use proptest::prelude::*;
use wts_deps::{critical_paths, DepGraph};
use wts_ir::{Hazards, Inst, MemRef, MemSpace, Opcode, Reg};
use wts_machine::MachineConfig;

fn arb_insts(max: usize) -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(
        (0u8..7, 0u16..5, 0u16..5, 0u32..3).prop_map(|(kind, a, b, slot)| match kind {
            0 | 1 => Inst::new(Opcode::Add).def(Reg::gpr(a + 8)).use_(Reg::gpr(b)).use_(Reg::gpr(a)),
            2 => Inst::new(Opcode::Lwz).def(Reg::gpr(a + 8)).use_(Reg::gpr(b)).mem(MemRef::slot(MemSpace::Heap, slot)),
            3 => Inst::new(Opcode::Stw).use_(Reg::gpr(a)).use_(Reg::gpr(b)).mem(MemRef::slot(MemSpace::Heap, slot)),
            4 => Inst::new(Opcode::Fadd).def(Reg::fpr(a + 1)).use_(Reg::fpr(b)).use_(Reg::fpr(a)),
            5 => Inst::new(Opcode::NullCheck).use_(Reg::gpr(a)).hazard(Hazards::PEI),
            _ => Inst::new(Opcode::Mr).def(Reg::gpr(a + 8)).use_(Reg::gpr(b)),
        }),
        0..max,
    )
}

/// Blocks for the semantic property: loads and stores over all three
/// spaces with known and unknown slots, register traffic in three
/// classes, and branches as barriers.
fn arb_mixed_insts(max: usize) -> impl Strategy<Value = Vec<Inst>> {
    prop::collection::vec(
        (0u8..8, 0u16..4, 0u16..4, 0usize..3, 0u32..4).prop_map(|(kind, a, b, space, slot)| {
            let space = [MemSpace::Stack, MemSpace::Heap, MemSpace::Static][space];
            // Slot 3 stands for an access that was not disambiguated.
            let mem = if slot == 3 { MemRef::unknown(space) } else { MemRef::slot(space, slot) };
            match kind {
                0 | 1 => Inst::new(Opcode::Lwz).def(Reg::gpr(a)).use_(Reg::gpr(b)).mem(mem),
                2 | 3 => Inst::new(Opcode::Stw).use_(Reg::gpr(a)).use_(Reg::gpr(b)).mem(mem),
                4 => Inst::new(Opcode::Add).def(Reg::gpr(a)).use_(Reg::gpr(b)).use_(Reg::gpr(a)),
                5 => Inst::new(Opcode::Fadd).def(Reg::fpr(a)).use_(Reg::fpr(b)).use_(Reg::fpr(a)),
                6 => Inst::new(Opcode::Cmp).def(Reg::cr(0)).use_(Reg::gpr(a)).use_(Reg::gpr(b)),
                _ => Inst::new(Opcode::Bc).use_(Reg::cr(0)),
            }
        }),
        0..max,
    )
}

/// True when `a` and a later `b` must keep their order: RAW, WAR or WAW
/// on one register, or two may-aliasing accesses at least one of which
/// is a store.
fn conflict(a: &Inst, b: &Inst) -> bool {
    let reg = a.defs().iter().any(|d| b.uses().contains(d) || b.defs().contains(d))
        || a.uses().iter().any(|u| b.defs().contains(u));
    let mem = match (a.mem_ref(), b.mem_ref()) {
        (Some(x), Some(y)) => x.may_alias(y) && (a.opcode().is_store() || b.opcode().is_store()),
        _ => false,
    };
    reg || mem
}

/// `reach[i]` has bit `j` set when the graph has a path `i -> j`.
fn reachability(g: &DepGraph) -> Vec<u64> {
    assert!(g.len() <= 64, "bitset reachability covers 64 nodes");
    let mut reach = vec![0u64; g.len()];
    for i in (0..g.len()).rev() {
        for &(s, _) in g.succs(i) {
            reach[i] |= (1 << s) | reach[s as usize];
        }
    }
    reach
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edges_point_forward_only(insts in arb_insts(16)) {
        let g = DepGraph::build(&insts);
        for i in 0..g.len() {
            for &(s, _) in g.succs(i) {
                prop_assert!((s as usize) > i, "edge {i} -> {s} goes backward");
            }
            for &(p, _) in g.preds(i) {
                prop_assert!((p as usize) < i);
            }
        }
    }

    #[test]
    fn preds_and_succs_are_mirror_images(insts in arb_insts(16)) {
        let g = DepGraph::build(&insts);
        let mut from_succs = 0usize;
        for i in 0..g.len() {
            for &(s, _) in g.succs(i) {
                prop_assert!(g.preds(s as usize).iter().any(|&(p, _)| p as usize == i));
                from_succs += 1;
            }
        }
        prop_assert_eq!(from_succs, g.edge_count());
    }

    #[test]
    fn identity_order_always_respected(insts in arb_insts(16)) {
        let g = DepGraph::build(&insts);
        let identity: Vec<usize> = (0..insts.len()).collect();
        prop_assert!(g.respects(&identity));
    }

    #[test]
    fn topological_consumption_reaches_every_node(insts in arb_insts(16)) {
        let g = DepGraph::build(&insts);
        let mut scheduled = vec![false; g.len()];
        let mut placed = 0;
        loop {
            let ready = g.ready(&scheduled);
            if ready.is_empty() {
                break;
            }
            scheduled[ready[0]] = true;
            placed += 1;
        }
        prop_assert_eq!(placed, g.len(), "DAG must never deadlock");
    }

    #[test]
    fn critical_paths_decrease_along_edges(insts in arb_insts(16)) {
        let m = MachineConfig::ppc7410();
        let g = DepGraph::build(&insts);
        let cp = critical_paths(&g, &insts, &m);
        for i in 0..g.len() {
            prop_assert!(cp[i] >= m.latency(insts[i].opcode()) as u64);
            for &(s, _) in g.succs(i) {
                prop_assert!(cp[i] > cp[s as usize], "cp must strictly decrease along an edge");
            }
        }
    }

    /// The meaning of the graph, without re-deriving its edges: every
    /// pair of instructions whose order matters is joined by a path, in
    /// both builder modes.
    #[test]
    fn every_conflicting_pair_is_joined_by_a_path(insts in arb_mixed_insts(24), spec_bit in 0u8..2) {
        let g = if spec_bit == 1 { DepGraph::build_speculative(&insts) } else { DepGraph::build(&insts) };
        let reach = reachability(&g);
        for i in 0..insts.len() {
            for j in (i + 1)..insts.len() {
                if conflict(&insts[i], &insts[j]) {
                    prop_assert!(reach[i] >> j & 1 == 1, "no path {i} -> {j} in {insts:?}");
                }
            }
        }
    }

    #[test]
    fn dependent_register_pairs_are_connected(insts in arb_insts(12)) {
        // For every pair (i, j), i < j, where j reads a register i writes
        // and no instruction between them rewrites it, an edge must exist.
        let g = DepGraph::build(&insts);
        for i in 0..insts.len() {
            'pair: for j in (i + 1)..insts.len() {
                for d in insts[i].defs() {
                    if insts[j].uses().contains(d) {
                        let rewritten = insts[i + 1..j].iter().any(|k| k.defs().contains(d));
                        if !rewritten {
                            prop_assert!(g.has_edge(i, j), "missing true dep {i} -> {j} on {d}");
                            continue 'pair;
                        }
                    }
                }
            }
        }
    }
}
