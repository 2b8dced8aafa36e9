//! The dependence graph itself.
//!
//! Storage is compressed sparse row (CSR): one flat edge array plus an
//! offset table per direction, so a node's adjacency is a contiguous
//! slice and traversal touches no per-node heap allocations. Graphs are
//! produced by a reusable [`GraphBuilder`] whose scratch state — dense
//! per-register last-def/reader tables, a record-time edge dedup and a
//! counting scatter into CSR — is allocated once and reused across the
//! blocks of a method.

use wts_ir::{Inst, Reg};

/// Why one instruction must stay ordered after another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Read-after-write through a register.
    True,
    /// Write-after-read through a register.
    Anti,
    /// Write-after-write through a register.
    Output,
    /// Ordering between may-aliasing memory accesses.
    Memory,
    /// Ordering against a control transfer (branch, call, return).
    Control,
    /// Ordering against a hazardous instruction (PEI, GC point,
    /// thread-switch point, yield point) that disallows reordering.
    Hazard,
}

/// A dependence DAG over the instructions of one basic block.
///
/// Nodes are instruction indices in original program order; every edge
/// points from a lower to a higher index, so the graph is acyclic by
/// construction. Parallel edges of different kinds between the same pair
/// are collapsed, keeping the first (strongest) kind recorded.
///
/// Adjacency is stored CSR-style: `succs(i)` / `preds(i)` are slices of
/// flat arrays indexed through offset tables. Successor lists are sorted
/// by target; predecessor lists preserve discovery order (the order the
/// dependence scan recorded them), which downstream consumers — notably
/// the list scheduler's ready-queue insertion — rely on for bit-identical
/// schedules.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    n: usize,
    pred_off: Vec<u32>,
    preds: Vec<(u32, DepKind)>,
    succ_off: Vec<u32>,
    succs: Vec<(u32, DepKind)>,
}

impl DepGraph {
    /// An empty graph, ready to be filled by
    /// [`GraphBuilder::build_into`]. Equivalent to building from zero
    /// instructions.
    pub fn empty() -> DepGraph {
        DepGraph::default()
    }

    /// Builds the DAG for `insts` (one block's instructions, program order).
    ///
    /// Convenience for one-shot use; batch callers should reuse a
    /// [`GraphBuilder`] across blocks instead.
    pub fn build(insts: &[Inst]) -> DepGraph {
        GraphBuilder::new().build(insts, false)
    }

    /// Builds a *speculative* DAG for superblock scheduling: branches
    /// order only with other side-effecting instructions (memory writes,
    /// calls, hazards, control), so pure register computation may move
    /// across the superblock's internal side exits. This models trace
    /// scheduling with compensation code (Fisher 1981), which the paper
    /// cites as the enabling technique and leaves as future work (§3.1).
    pub fn build_speculative(insts: &[Inst]) -> DepGraph {
        GraphBuilder::new().build(insts, true)
    }

    /// Number of instructions (nodes).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the block was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Predecessors of `i` (instructions that must come before it).
    pub fn preds(&self, i: usize) -> &[(u32, DepKind)] {
        &self.preds[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Successors of `i` (instructions that must come after it).
    pub fn succs(&self, i: usize) -> &[(u32, DepKind)] {
        &self.succs[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// True when an edge `from -> to` exists (any kind).
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.edge_kind(from, to).is_some()
    }

    /// Kind of the edge `from -> to`, if present.
    pub fn edge_kind(&self, from: usize, to: usize) -> Option<DepKind> {
        // Successor slices are sorted by target, so binary search works;
        // adjacency lists are short enough that this is mostly about not
        // scanning the occasional barrier node's long list.
        let s = self.succs(from);
        let to = u32::try_from(to).ok()?;
        s.binary_search_by_key(&to, |&(t, _)| t).ok().map(|k| s[k].1)
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.len()
    }

    /// True when `order` is a permutation of `0..len` that respects every
    /// edge (each node appears after all its predecessors).
    pub fn respects(&self, order: &[usize]) -> bool {
        if order.len() != self.n {
            return false;
        }
        let mut pos = vec![usize::MAX; self.n];
        for (p, &i) in order.iter().enumerate() {
            if i >= self.n || pos[i] != usize::MAX {
                return false;
            }
            pos[i] = p;
        }
        for i in 0..self.n {
            for &(p, _) in self.preds(i) {
                if pos[p as usize] > pos[i] {
                    return false;
                }
            }
        }
        true
    }

    /// Indices whose predecessors are all in `scheduled` (given as a
    /// boolean membership mask) and that are not themselves scheduled.
    pub fn ready(&self, scheduled: &[bool]) -> Vec<usize> {
        assert_eq!(scheduled.len(), self.n, "mask length mismatch");
        (0..self.n).filter(|&i| !scheduled[i] && self.preds(i).iter().all(|&(p, _)| scheduled[p as usize])).collect()
    }
}

/// Sentinel for "no entry" in the dense per-register tables.
const NONE: u32 = u32::MAX;

/// One recorded dependence edge. The builder's list holds each pair
/// once, in record order: ascending target, and discovery order within a
/// target.
#[derive(Clone, Copy)]
struct RawEdge {
    from: u32,
    to: u32,
    kind: DepKind,
}

/// Reusable dependence-scan state.
///
/// All scratch — the raw edge list, the dense per-register last-def and
/// reader tables (indexed by [`Reg::dense_key`], validated by an epoch
/// counter so clearing a block is O(1)), the store/load/barrier work
/// lists — is allocated once and reused, so building the graphs of a
/// whole method performs no steady-state heap allocation.
///
/// # Examples
///
/// ```
/// use wts_deps::{DepGraph, GraphBuilder};
/// use wts_ir::{Inst, Opcode, Reg};
///
/// let block = [Inst::new(Opcode::Li).def(Reg::gpr(1)).imm(1)];
/// let mut builder = GraphBuilder::new();
/// let mut graph = DepGraph::empty();
/// builder.build_into(&block, false, &mut graph);
/// assert_eq!(graph.len(), 1);
/// assert_eq!(builder.last_edge_count(), graph.edge_count());
/// ```
pub struct GraphBuilder {
    edges: Vec<RawEdge>,
    /// Per source, `to + 1` for the last edge recorded from it this block
    /// (0: none), so a repeated pair is dropped when it is recorded.
    last_to: Vec<u32>,
    /// Per source, the next free successor slot of the CSR scatter.
    cursor: Vec<u32>,
    /// Current block's epoch; table entries from other epochs are stale.
    epoch: u64,
    /// Per-register index of the last defining instruction.
    last_def: Vec<(u64, u32)>,
    /// Per-register head/tail into `reader_pool` for uses since the last
    /// def, in use order.
    readers: Vec<(u64, u32, u32)>,
    /// Linked-list pool backing the per-register reader lists:
    /// `(reader index, next pool slot)`.
    reader_pool: Vec<(u32, u32)>,
    stores: Vec<u32>,
    /// Loads no store has covered yet; see [`wts_ir::MemRef::covers`].
    pending_loads: Vec<u32>,
    since_barrier: Vec<u32>,
    last_edges: usize,
}

impl GraphBuilder {
    /// A fresh builder. The dense register tables grow on demand up to
    /// [`Reg::dense_limit`] entries and are then reused across blocks,
    /// so construction is cheap and steady-state builds allocate nothing.
    pub fn new() -> GraphBuilder {
        GraphBuilder {
            edges: Vec::new(),
            last_to: Vec::new(),
            cursor: Vec::new(),
            epoch: 0,
            last_def: Vec::new(),
            readers: Vec::new(),
            reader_pool: Vec::new(),
            stores: Vec::new(),
            pending_loads: Vec::new(),
            since_barrier: Vec::new(),
            last_edges: 0,
        }
    }

    /// Grows the dense register tables to cover `key`. Stale (previous
    /// epoch) fill values are fine: the epoch check treats them as absent.
    fn ensure_key(&mut self, key: usize) {
        debug_assert!(key < Reg::dense_limit());
        if key >= self.last_def.len() {
            self.last_def.resize(key + 1, (0, NONE));
            self.readers.resize(key + 1, (0, NONE, NONE));
        }
    }

    /// Number of edges in the most recently built graph. Lets callers
    /// that only need the edge count (e.g. work-proxy accounting) avoid
    /// keeping the graph alive.
    pub fn last_edge_count(&self) -> usize {
        self.last_edges
    }

    /// Builds into a fresh graph. Prefer [`GraphBuilder::build_into`]
    /// when a graph buffer can be reused.
    pub fn build(&mut self, insts: &[Inst], speculative: bool) -> DepGraph {
        let mut g = DepGraph::empty();
        self.build_into(insts, speculative, &mut g);
        g
    }

    /// Runs the dependence scan for one block's instructions, replacing
    /// `out`'s contents. `out`'s allocations are reused.
    pub fn build_into(&mut self, insts: &[Inst], speculative: bool, out: &mut DepGraph) {
        let n = insts.len();
        self.epoch += 1;
        self.edges.clear();
        self.last_to.clear();
        self.last_to.resize(n, 0);
        self.reader_pool.clear();
        self.stores.clear();
        self.pending_loads.clear();
        self.since_barrier.clear();
        // Control transfers and hazardous instructions are reorder
        // barriers: chain everything between consecutive barriers. In
        // speculative mode, plain branches only order against
        // side-effecting or hazardous instructions — pure register
        // computation may cross a superblock's internal side exits.
        let mut last_barrier: Option<u32> = None;
        let mut last_branch: Option<u32> = None;

        for (idx, inst) in insts.iter().enumerate() {
            let i = u32::try_from(idx).expect("blocks are far below u32::MAX insts");
            let op = inst.opcode();

            for u in inst.uses() {
                let key = u.dense_key();
                self.ensure_key(key);
                if let Some(d) = self.lookup_def(key) {
                    self.edge(d, i, DepKind::True);
                }
                self.push_reader(key, i);
            }
            for d in inst.defs() {
                let key = d.dense_key();
                self.ensure_key(key);
                if let Some(p) = self.lookup_def(key) {
                    self.edge(p, i, DepKind::Output);
                }
                // Walk the reader list in use order; no clone needed since
                // the pool and the edge list are disjoint.
                let (epoch, mut cursor, _) = self.readers[key];
                if epoch != self.epoch {
                    cursor = NONE;
                }
                while cursor != NONE {
                    let (r, next) = self.reader_pool[cursor as usize];
                    if r != i {
                        self.edge(r, i, DepKind::Anti);
                    }
                    cursor = next;
                }
            }
            if let Some(m) = inst.mem_ref() {
                for k in 0..self.stores.len() {
                    let s = self.stores[k];
                    let sm = insts[s as usize].mem_ref().expect("stores carry mem refs");
                    if m.may_alias(sm) {
                        self.edge(s, i, DepKind::Memory);
                    }
                }
                if op.is_store() {
                    // A store orders after every aliasing pending load, and
                    // retires the loads it covers: any later store that
                    // aliases such a load aliases this store too, so the
                    // order holds through the store-to-store edge.
                    let mut kept = 0;
                    for k in 0..self.pending_loads.len() {
                        let l = self.pending_loads[k];
                        let lm = insts[l as usize].mem_ref().expect("loads carry mem refs");
                        if m.may_alias(lm) {
                            self.edge(l, i, DepKind::Memory);
                        }
                        if !m.covers(lm) {
                            self.pending_loads[kept] = l;
                            kept += 1;
                        }
                    }
                    self.pending_loads.truncate(kept);
                }
            }

            // Speculative mode downgrades plain branches (not calls or
            // returns, which clobber machine state) to side-effect-only
            // barriers.
            let is_full_barrier = if speculative {
                op.is_call() || op.is_return() || inst.is_hazardous()
            } else {
                op.is_control() || inst.is_hazardous()
            };
            let is_branch_barrier = speculative && op.is_branch();
            let effectful = inst.opcode().has_side_effect() || inst.is_hazardous();

            if let Some(b) = last_barrier {
                let kind = if insts[b as usize].opcode().is_control() { DepKind::Control } else { DepKind::Hazard };
                self.edge(b, i, kind);
            }
            if is_branch_barrier {
                if let Some(br) = last_branch {
                    self.edge(br, i, DepKind::Control);
                }
                for k in 0..self.since_barrier.len() {
                    let p = self.since_barrier[k];
                    let pi = &insts[p as usize];
                    if pi.opcode().has_side_effect() || pi.is_hazardous() {
                        self.edge(p, i, DepKind::Control);
                    }
                }
                last_branch = Some(i);
                self.since_barrier.push(i);
            } else if is_full_barrier {
                let kind = if op.is_control() { DepKind::Control } else { DepKind::Hazard };
                for k in 0..self.since_barrier.len() {
                    let p = self.since_barrier[k];
                    self.edge(p, i, kind);
                }
                last_barrier = Some(i);
                last_branch = None;
                self.since_barrier.clear();
            } else {
                if effectful {
                    if let Some(br) = last_branch {
                        self.edge(br, i, DepKind::Control);
                    }
                }
                self.since_barrier.push(i);
            }

            for d in inst.defs() {
                let key = d.dense_key();
                self.last_def[key] = (self.epoch, i);
                self.readers[key] = (self.epoch, NONE, NONE);
            }
            if op.is_store() {
                self.stores.push(i);
            } else if op.is_load() {
                self.pending_loads.push(i);
            }
        }
        self.finish(n, out);
    }

    fn lookup_def(&self, key: usize) -> Option<u32> {
        let (epoch, d) = self.last_def[key];
        (epoch == self.epoch && d != NONE).then_some(d)
    }

    fn push_reader(&mut self, key: usize, i: u32) {
        let slot = u32::try_from(self.reader_pool.len()).expect("reader pool outgrew u32 indices");
        self.reader_pool.push((i, NONE));
        let entry = &mut self.readers[key];
        if entry.0 != self.epoch || entry.1 == NONE {
            *entry = (self.epoch, slot, slot);
        } else {
            self.reader_pool[entry.2 as usize].1 = slot;
            entry.2 = slot;
        }
    }

    /// Records `from -> to` unless the pair already has an edge; the
    /// first kind recorded wins. Every edge into `to` is recorded while
    /// scanning `to`, in ascending `to`, so a repeated pair always finds
    /// its own stamp in `last_to`.
    fn edge(&mut self, from: u32, to: u32, kind: DepKind) {
        debug_assert!(from < to, "dependence edges must follow program order");
        let stamp = &mut self.last_to[from as usize];
        if *stamp != to + 1 {
            *stamp = to + 1;
            self.edges.push(RawEdge { from, to, kind });
        }
    }

    /// Lays the deduplicated edge list out as CSR adjacency, with no
    /// sort: the list is in ascending target order already, so it *is*
    /// the predecessor array (discovery order within each target), and a
    /// counting scatter over sources fills each successor slice in
    /// ascending target order.
    fn finish(&mut self, n: usize, out: &mut DepGraph) {
        out.n = n;
        out.pred_off.clear();
        out.pred_off.resize(n + 1, 0);
        out.succ_off.clear();
        out.succ_off.resize(n + 1, 0);
        out.preds.clear();
        out.preds.reserve(self.edges.len());
        for e in &self.edges {
            out.pred_off[e.to as usize + 1] += 1;
            out.succ_off[e.from as usize + 1] += 1;
            out.preds.push((e.from, e.kind));
        }
        for i in 0..n {
            out.pred_off[i + 1] += out.pred_off[i];
            out.succ_off[i + 1] += out.succ_off[i];
        }

        self.cursor.clear();
        self.cursor.extend_from_slice(&out.succ_off[..n]);
        out.succs.clear();
        out.succs.resize(self.edges.len(), (0, DepKind::True));
        for e in &self.edges {
            let slot = &mut self.cursor[e.from as usize];
            out.succs[*slot as usize] = (e.to, e.kind);
            *slot += 1;
        }
        self.last_edges = self.edges.len();
    }
}

impl Default for GraphBuilder {
    fn default() -> GraphBuilder {
        GraphBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_ir::{Hazards, MemRef, MemSpace, Opcode};

    fn add(def: u16, a: u16, b: u16) -> Inst {
        Inst::new(Opcode::Add).def(Reg::gpr(def)).use_(Reg::gpr(a)).use_(Reg::gpr(b))
    }

    fn load(def: u16, slot: u32) -> Inst {
        Inst::new(Opcode::Lwz).def(Reg::gpr(def)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot))
    }

    fn store(src: u16, slot: u32) -> Inst {
        Inst::new(Opcode::Stw).use_(Reg::gpr(src)).use_(Reg::gpr(30)).mem(MemRef::slot(MemSpace::Heap, slot))
    }

    #[test]
    fn empty_graph() {
        let g = DepGraph::build(&[]);
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert!(g.respects(&[]));
    }

    #[test]
    fn true_dependence() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 1, 9)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::True));
    }

    #[test]
    fn anti_dependence() {
        // i0 reads r1; i1 overwrites r1.
        let g = DepGraph::build(&[add(2, 1, 1), add(1, 9, 9)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Anti));
    }

    #[test]
    fn output_dependence() {
        let g = DepGraph::build(&[add(1, 9, 9), add(1, 8, 8)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Output));
    }

    #[test]
    fn independent_instructions_have_no_edge() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 8, 8)]);
        assert_eq!(g.edge_count(), 0);
        assert!(g.respects(&[1, 0]));
    }

    #[test]
    fn memory_edges_respect_aliasing() {
        let g = DepGraph::build(&[store(1, 0), load(2, 0), load(3, 8)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Memory), "aliasing load after store");
        assert!(!g.has_edge(0, 2), "disjoint slots are independent");
        assert!(!g.has_edge(1, 2), "loads do not order with loads");
    }

    #[test]
    fn store_after_load_is_ordered() {
        let g = DepGraph::build(&[load(2, 0), store(1, 0)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Memory));
    }

    #[test]
    fn store_to_another_slot_does_not_retire_a_pending_load() {
        // lwz [heap+0]; stw [heap+8]; stw [heap+0]: the middle store does
        // not alias the load, so the load must still order before the
        // last store. Clearing every pending load at each store left no
        // path 0 -> 2 and let [2, 0, 1] pass as legal.
        let g = DepGraph::build(&[load(3, 0), store(4, 8), store(5, 0)]);
        assert_eq!(g.edge_kind(0, 2), Some(DepKind::Memory));
        assert!(!g.respects(&[2, 0, 1]));
    }

    #[test]
    fn known_slot_store_does_not_retire_an_unknown_load() {
        // The store to slot 0 aliases the unknown load but does not cover
        // it: a later store to slot 8 aliases the load and not the store.
        let unknown = Inst::new(Opcode::Lwz).def(Reg::gpr(3)).use_(Reg::gpr(30)).mem(MemRef::unknown(MemSpace::Heap));
        let g = DepGraph::build(&[unknown, store(4, 0), store(5, 8)]);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.edge_kind(0, 2), Some(DepKind::Memory));
    }

    #[test]
    fn covering_store_retires_the_load() {
        // The second store covers the load, so the third store orders
        // after the load through the store-to-store edge alone.
        let g = DepGraph::build(&[load(3, 0), store(4, 0), store(5, 0)]);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2), "the covered load needs no direct edge");
    }

    #[test]
    fn unknown_slot_aliases_everything_in_space() {
        let g = DepGraph::build(&[
            store(1, 0),
            Inst::new(Opcode::Lwz).def(Reg::gpr(2)).use_(Reg::gpr(30)).mem(MemRef::unknown(MemSpace::Heap)),
        ]);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn branch_orders_with_everything() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 8, 8), Inst::new(Opcode::Bc).use_(Reg::cr(0))]);
        assert_eq!(g.edge_kind(0, 2), Some(DepKind::Control));
        assert_eq!(g.edge_kind(1, 2), Some(DepKind::Control));
        assert!(g.respects(&[1, 0, 2]));
        assert!(!g.respects(&[0, 2, 1]));
    }

    #[test]
    fn call_is_a_barrier_both_ways() {
        let g = DepGraph::build(&[add(1, 9, 9), Inst::new(Opcode::Bl).def(Reg::lr()), add(2, 8, 8)]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2), "barrier chaining keeps the graph sparse");
        assert!(!g.respects(&[2, 1, 0]));
        assert!(g.respects(&[0, 1, 2]));
    }

    #[test]
    fn hazard_disallows_reordering() {
        let pei = Inst::new(Opcode::Lwz)
            .def(Reg::gpr(5))
            .use_(Reg::gpr(30))
            .mem(MemRef::slot(MemSpace::Heap, 4))
            .hazard(Hazards::PEI);
        let g = DepGraph::build(&[add(1, 9, 9), pei, add(2, 8, 8)]);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Hazard));
        assert_eq!(g.edge_kind(1, 2), Some(DepKind::Hazard));
    }

    #[test]
    fn ready_tracks_scheduled_mask() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 1, 9), add(3, 8, 8)]);
        assert_eq!(g.ready(&[false, false, false]), vec![0, 2]);
        assert_eq!(g.ready(&[true, false, false]), vec![1, 2]);
        assert_eq!(g.ready(&[true, true, true]), Vec::<usize>::new());
    }

    #[test]
    fn respects_rejects_non_permutations() {
        let g = DepGraph::build(&[add(1, 9, 9), add(2, 8, 8)]);
        assert!(!g.respects(&[0]));
        assert!(!g.respects(&[0, 0]));
        assert!(!g.respects(&[0, 5]));
    }

    #[test]
    fn speculative_lets_alu_cross_branches() {
        let insts = vec![add(1, 9, 9), Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(2, 8, 8)];
        let normal = DepGraph::build(&insts);
        assert!(normal.has_edge(0, 1) && normal.has_edge(1, 2));
        let spec = DepGraph::build_speculative(&insts);
        assert!(!spec.has_edge(0, 1), "pure add may sink below the branch");
        assert!(!spec.has_edge(1, 2), "pure add may hoist above the branch");
        assert!(spec.respects(&[0, 2, 1]));
        assert!(spec.respects(&[1, 0, 2]));
    }

    #[test]
    fn speculative_keeps_stores_ordered_with_branches() {
        let insts = vec![store(1, 0), Inst::new(Opcode::Bc).use_(Reg::cr(0)), store(2, 4)];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 1), "stores may not sink below a side exit");
        assert!(spec.has_edge(1, 2), "stores may not hoist above a side exit");
    }

    #[test]
    fn speculative_keeps_branches_ordered() {
        let insts = vec![Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(1, 9, 9), Inst::new(Opcode::Bc).use_(Reg::cr(0))];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 2), "side exits stay in order");
        assert!(!spec.has_edge(0, 1));
    }

    #[test]
    fn speculative_calls_remain_full_barriers() {
        let insts = vec![add(1, 9, 9), Inst::new(Opcode::Bl).def(Reg::lr()), add(2, 8, 8)];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 1));
        assert!(spec.has_edge(1, 2));
    }

    #[test]
    fn speculative_hazards_remain_full_barriers() {
        let pei = Inst::new(Opcode::NullCheck).use_(Reg::gpr(5)).hazard(Hazards::PEI);
        let insts = vec![add(1, 9, 9), pei, add(2, 8, 8)];
        let spec = DepGraph::build_speculative(&insts);
        assert!(spec.has_edge(0, 1));
        assert!(spec.has_edge(1, 2));
    }

    #[test]
    fn edges_are_deduplicated() {
        // i1 both truly depends on r1 and anti-depends via r2... build a
        // case with two reasons for the same edge.
        let i0 = Inst::new(Opcode::Add).def(Reg::gpr(1)).def(Reg::gpr(2)).use_(Reg::gpr(9)).use_(Reg::gpr(9));
        let i1 = add(3, 1, 2);
        let g = DepGraph::build(&[i0, i1]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn dedup_keeps_the_first_kind_recorded() {
        // i1 truly depends on i0 via r1 (recorded while scanning uses)
        // and anti-depends via r9 (recorded later, while scanning defs):
        // the True edge, recorded first, wins.
        let i0 = Inst::new(Opcode::Add).def(Reg::gpr(1)).use_(Reg::gpr(9)).use_(Reg::gpr(9));
        let i1 = Inst::new(Opcode::Add).def(Reg::gpr(9)).use_(Reg::gpr(1)).use_(Reg::gpr(1));
        let g = DepGraph::build(&[i0, i1]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::True));
    }

    /// `f0 = fmul; r<index> = add; f3 = fadd f0, f0`.
    fn fp_flow_around_gpr(index: u16) -> [Inst; 3] {
        [
            Inst::new(Opcode::Fmul).def(Reg::fpr(0)).use_(Reg::fpr(1)).use_(Reg::fpr(2)),
            add(index, 1, 2),
            Inst::new(Opcode::Fadd).def(Reg::fpr(3)).use_(Reg::fpr(0)).use_(Reg::fpr(0)),
        ]
    }

    #[test]
    #[should_panic(expected = "MAX_INDEX")]
    fn register_beyond_max_index_cannot_alias_another_class() {
        // r1024 and f0 once shared a dense key: the graph had a spurious
        // 0 -> 1 -> 2 chain and no 0 -> 2 RAW edge. Such a register can
        // no longer be built.
        let g = DepGraph::build(&fp_flow_around_gpr(1024));
        assert_eq!(g.edge_kind(0, 2), Some(DepKind::True), "f0 flows from 0 to 2");
    }

    #[test]
    fn register_at_max_index_keeps_its_own_key() {
        let g = DepGraph::build(&fp_flow_around_gpr(Reg::MAX_INDEX));
        assert_eq!(g.edge_kind(0, 2), Some(DepKind::True));
        assert!(!g.has_edge(0, 1) && !g.has_edge(1, 2), "the add is independent of the FP flow");
    }

    #[test]
    fn builder_reuse_across_blocks_is_clean() {
        // Same builder, different blocks: no state may leak between runs.
        let mut builder = GraphBuilder::new();
        let mut g = DepGraph::empty();

        builder.build_into(&[add(1, 9, 9), add(2, 1, 9)], false, &mut g);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::True));
        assert_eq!(builder.last_edge_count(), 1);

        // A block reusing the same registers with no dependence: the old
        // last-def/reader entries must not leak in.
        builder.build_into(&[add(1, 9, 9), add(2, 8, 8)], false, &mut g);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(builder.last_edge_count(), 0);

        builder.build_into(&[store(1, 0), load(2, 0)], false, &mut g);
        assert_eq!(g.edge_kind(0, 1), Some(DepKind::Memory));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn builder_matches_one_shot_builds() {
        let blocks: Vec<Vec<Inst>> = vec![
            vec![add(1, 9, 9), add(2, 1, 9), store(2, 0), load(3, 0)],
            vec![load(1, 4), Inst::new(Opcode::Bc).use_(Reg::cr(0)), add(2, 1, 1)],
            vec![],
            vec![add(1, 1, 1)],
        ];
        let mut builder = GraphBuilder::new();
        let mut g = DepGraph::empty();
        for block in &blocks {
            for &speculative in &[false, true] {
                builder.build_into(block, speculative, &mut g);
                let fresh = if speculative { DepGraph::build_speculative(block) } else { DepGraph::build(block) };
                assert_eq!(g.edge_count(), fresh.edge_count());
                for i in 0..block.len() {
                    assert_eq!(g.preds(i), fresh.preds(i));
                    assert_eq!(g.succs(i), fresh.succs(i));
                }
            }
        }
    }
}
