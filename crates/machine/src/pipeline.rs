//! The detailed out-of-order pipeline simulator (hardware stand-in).

use crate::{FunctionalUnit, MachineConfig};
use std::collections::HashMap;
use wts_ir::{BasicBlock, Inst, Opcode, Reg, UnitClass};

/// A more detailed simulator than [`CostModel`](crate::CostModel): it
/// models a small out-of-order window (the 7410's limited dynamic
/// scheduling), in-order fetch/retire, per-unit contention and the
/// machine's issue-width rules.
///
/// In the reproduction this plays the role of *the real machine*: the
/// application-running-time figures (Figures 1(b), 2(b), 3(b)) are
/// computed against it, while training labels come from the cheap
/// [`CostModel`](crate::CostModel). Because the window recovers part of
/// the stalls a bad order causes, measured improvements are smaller than
/// predicted ones — the same gap the paper reports between Table 4 and its
/// measured figures.
///
/// # Examples
///
/// ```
/// use wts_ir::{BasicBlock, Inst, Opcode, Reg};
/// use wts_machine::{MachineConfig, PipelineSim};
///
/// let m = MachineConfig::ppc7410();
/// let mut b = BasicBlock::new(0);
/// b.push(Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(2)).use_(Reg::gpr(3)));
/// assert!(PipelineSim::new(&m).block_cycles(&b) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSim<'m> {
    machine: &'m MachineConfig,
}

/// Dependence edges precomputed from program order.
#[derive(Debug, Default, Clone)]
struct SimDeps {
    /// Predecessors whose *completion* must precede our issue.
    completion: Vec<Vec<u32>>,
    /// Predecessors whose *issue* must precede-or-equal our issue.
    issue: Vec<Vec<u32>>,
}

fn is_serializing(op: Opcode) -> bool {
    matches!(op, Opcode::Sync | Opcode::Isync) || op.is_call()
}

fn scan_deps(insts: &[Inst]) -> SimDeps {
    let n = insts.len();
    let mut deps = SimDeps { completion: vec![Vec::new(); n], issue: vec![Vec::new(); n] };
    let mut last_def: HashMap<Reg, u32> = HashMap::new();
    let mut uses_since_def: HashMap<Reg, Vec<u32>> = HashMap::new();
    let mut stores: Vec<u32> = Vec::new();
    let mut loads_since_store: Vec<u32> = Vec::new();
    let mut last_barrier: Option<u32> = None;
    let mut since_barrier: Vec<u32> = Vec::new();

    for (idx, inst) in insts.iter().enumerate() {
        let i = u32::try_from(idx).expect("simulated blocks are far below u32::MAX insts");
        let op = inst.opcode();
        // True data dependences.
        for u in inst.uses() {
            if let Some(&d) = last_def.get(u) {
                deps.completion[idx].push(d);
            }
            uses_since_def.entry(*u).or_default().push(i);
        }
        // Output and anti dependences on registers.
        for d in inst.defs() {
            if let Some(&p) = last_def.get(d) {
                deps.issue[idx].push(p);
            }
            if let Some(readers) = uses_since_def.get(d) {
                for &r in readers {
                    if r != i {
                        deps.issue[idx].push(r);
                    }
                }
            }
        }
        // Memory ordering.
        if let Some(m) = inst.mem_ref() {
            for &s in &stores {
                let sm = insts[s as usize].mem_ref().expect("stores carry mem refs");
                if m.may_alias(sm) {
                    deps.completion[idx].push(s);
                }
            }
            if op.is_store() {
                for &l in &loads_since_store {
                    let lm = insts[l as usize].mem_ref().expect("loads carry mem refs");
                    if m.may_alias(lm) {
                        deps.issue[idx].push(l);
                    }
                }
            }
        }
        // Serializing instructions.
        if let Some(b) = last_barrier {
            deps.completion[idx].push(b);
        }
        if is_serializing(op) {
            for &p in &since_barrier {
                deps.completion[idx].push(p);
            }
            last_barrier = Some(i);
            since_barrier.clear();
        } else {
            since_barrier.push(i);
        }
        // Update write state last.
        for d in inst.defs() {
            last_def.insert(*d, i);
            uses_since_def.insert(*d, Vec::new());
        }
        if op.is_store() {
            stores.push(i);
            loads_since_store.clear();
        } else if op.is_load() {
            loads_since_store.push(i);
        }
    }
    deps
}

impl<'m> PipelineSim<'m> {
    /// A pipeline simulator for the given machine.
    pub fn new(machine: &'m MachineConfig) -> PipelineSim<'m> {
        PipelineSim { machine }
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// Simulated cycles to execute `block` in its current order.
    pub fn block_cycles(&self, block: &BasicBlock) -> u64 {
        self.sequence_cycles(block.insts())
    }

    /// Simulated cycles for an explicit instruction sequence.
    pub fn sequence_cycles(&self, insts: &[Inst]) -> u64 {
        let n = insts.len();
        if n == 0 {
            return 0;
        }
        let deps = scan_deps(insts);
        let lat = self.machine.latencies();
        let window = self.machine.window();
        let fetch_bw = (self.machine.issue_width() + self.machine.branch_width()) as usize;

        let mut issue: Vec<Option<u64>> = vec![None; n];
        let mut done: Vec<u64> = vec![0; n];
        let mut unit_free = [0u64; FunctionalUnit::COUNT];
        let mut oldest = 0usize; // first unissued instruction
        let mut cycle: u64 = 0;
        let mut max_done: u64 = 0;
        let _ = fetch_bw;

        // Cap runaway loops: every instruction must issue within a bounded
        // horizon (sum of all latencies plus the block length is a safe
        // over-estimate).
        let horizon: u64 = insts.iter().map(|i| lat.latency(i.opcode()) as u64).sum::<u64>() + n as u64 + 64;

        while oldest < n {
            assert!(cycle <= horizon, "pipeline simulator failed to make progress");
            let mut nonbranch_budget = self.machine.issue_width();
            let mut branch_budget = self.machine.branch_width();
            // The selector may look `window` instructions past the oldest
            // unissued one; issuing the oldest slides the window within
            // the same cycle (in-order front end, OoO selection).
            let mut progress = true;
            while progress && (nonbranch_budget > 0 || branch_budget > 0) && oldest < n {
                progress = false;
                let limit = (oldest + window).min(n);
                for i in oldest..limit {
                    if issue[i].is_some() {
                        continue;
                    }
                    let op = insts[i].opcode();
                    let is_branch_unit = op.unit_class() == UnitClass::Branch;
                    let budget = if is_branch_unit { &mut branch_budget } else { &mut nonbranch_budget };
                    if *budget == 0 {
                        continue;
                    }
                    let ready =
                        deps.completion[i].iter().all(|&p| issue[p as usize].is_some() && done[p as usize] <= cycle)
                            && deps.issue[i].iter().all(|&p| issue[p as usize].is_some());
                    if !ready {
                        continue;
                    }
                    let units = self.machine.units_for(op.unit_class());
                    let Some(u) = units.iter().find(|u| unit_free[u.index()] <= cycle) else {
                        continue;
                    };
                    issue[i] = Some(cycle);
                    done[i] = cycle + lat.latency(op) as u64;
                    max_done = max_done.max(done[i]);
                    unit_free[u.index()] = cycle + lat.unit_occupancy(op) as u64;
                    *budget -= 1;
                    progress = true;
                }
                while oldest < n && issue[oldest].is_some() {
                    oldest += 1;
                }
            }
            cycle += 1;
        }
        max_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use wts_ir::{MemRef, MemSpace};

    fn m() -> MachineConfig {
        MachineConfig::ppc7410()
    }

    fn sim(insts: &[Inst]) -> u64 {
        let mach = m();
        PipelineSim::new(&mach).sequence_cycles(insts)
    }

    fn load(def: u16, slot: u32) -> Inst {
        Inst::new(Opcode::Lwz).def(Reg::gpr(def)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot))
    }

    fn add(def: u16, a: u16, b: u16) -> Inst {
        Inst::new(Opcode::Add).def(Reg::gpr(def)).use_(Reg::gpr(a)).use_(Reg::gpr(b))
    }

    #[test]
    fn empty_sequence_is_free() {
        assert_eq!(sim(&[]), 0);
    }

    #[test]
    fn single_instruction_latency() {
        assert_eq!(sim(&[add(1, 2, 3)]), 1);
        assert_eq!(sim(&[load(1, 0)]), m().latency(Opcode::Lwz) as u64);
    }

    #[test]
    fn window_recovers_bad_order() {
        // use-of-load immediately after load, independent adds after: the
        // OoO window issues the adds while the load completes.
        let bad = [load(1, 0), add(2, 1, 1), add(3, 7, 8), add(4, 7, 8)];
        let mach = m();
        let ooo = PipelineSim::new(&mach).sequence_cycles(&bad);
        let inorder = CostModel::new(&mach).sequence_cycles(&bad);
        assert!(ooo <= inorder, "window must not be slower than in-order");
        assert!(ooo < inorder, "window should hide part of the load stall");
    }

    #[test]
    fn dependences_still_respected() {
        let chain = [
            Inst::new(Opcode::Fadd).def(Reg::fpr(1)).use_(Reg::fpr(0)).use_(Reg::fpr(0)),
            Inst::new(Opcode::Fadd).def(Reg::fpr(2)).use_(Reg::fpr(1)).use_(Reg::fpr(1)),
        ];
        assert_eq!(sim(&chain), 2 * m().latency(Opcode::Fadd) as u64);
    }

    #[test]
    fn aliasing_store_load_ordered() {
        let slot = MemRef::slot(MemSpace::Heap, 4);
        let seq = [
            Inst::new(Opcode::Stw).use_(Reg::gpr(1)).use_(Reg::gpr(2)).mem(slot),
            Inst::new(Opcode::Lwz).def(Reg::gpr(3)).use_(Reg::gpr(2)).mem(slot),
        ];
        let mach = m();
        assert_eq!(sim(&seq), (mach.latency(Opcode::Stw) + mach.latency(Opcode::Lwz)) as u64);
    }

    #[test]
    fn anti_dependence_not_violated() {
        // r1 is read by the add, then overwritten by the load: the load may
        // not complete before... (we model: load issues >= add's issue).
        let seq = [add(2, 1, 1), load(1, 0), add(3, 2, 2)];
        // Sanity: simulation terminates and cost >= dependence height.
        let mach = m();
        let h = CostModel::new(&mach).dependence_height(&seq);
        assert!(sim(&seq) >= h);
    }

    #[test]
    fn window_bounded_by_in_order_cost() {
        // For a purely serial chain, OoO equals in-order.
        let mach = m();
        let chain: Vec<Inst> = (1..6u16)
            .map(|i| Inst::new(Opcode::Mullw).def(Reg::gpr(i)).use_(Reg::gpr(i - 1)).use_(Reg::gpr(i - 1)))
            .collect();
        assert_eq!(PipelineSim::new(&mach).sequence_cycles(&chain), CostModel::new(&mach).sequence_cycles(&chain));
    }

    #[test]
    fn serializing_call_orders_window() {
        let seq = [load(1, 0), Inst::new(Opcode::Bl).def(Reg::lr()), add(2, 7, 8)];
        let mach = m();
        let expect = (mach.latency(Opcode::Lwz) + mach.latency(Opcode::Bl) + mach.latency(Opcode::Add)) as u64;
        assert_eq!(sim(&seq), expect);
    }

    #[test]
    fn window_one_behaves_in_order() {
        let mach = MachineConfig::simple_scalar();
        let seq = [load(1, 0), add(2, 1, 1), add(3, 7, 8), add(4, 7, 8)];
        let ooo = PipelineSim::new(&mach).sequence_cycles(&seq);
        let ino = CostModel::new(&mach).sequence_cycles(&seq);
        assert_eq!(ooo, ino, "window=1 must match the in-order model");
    }

    #[test]
    fn scheduling_still_helps_but_less_than_in_order_predicts() {
        // The key methodological property: improvements measured on the
        // detailed machine are smaller than CostModel predicts.
        let bad = [
            load(1, 0),
            add(2, 1, 1),
            load(3, 8),
            add(4, 3, 3),
            load(5, 16),
            add(6, 5, 5),
            add(7, 20, 21),
            add(8, 22, 23),
        ];
        let good = [bad[0], bad[2], bad[4], bad[6], bad[1], bad[3], bad[7], bad[5]];
        let mach = m();
        let cm = CostModel::new(&mach);
        let ps = PipelineSim::new(&mach);
        let cycles = |c: u64| i64::try_from(c).expect("cycle count fits i64");
        let pred_gain = cycles(cm.sequence_cycles(&bad)) - cycles(cm.sequence_cycles(&good));
        let meas_gain = cycles(ps.sequence_cycles(&bad)) - cycles(ps.sequence_cycles(&good));
        assert!(pred_gain > 0);
        assert!(meas_gain >= 0);
        assert!(meas_gain <= pred_gain, "dynamic hardware recovers part of the stall");
    }
}
