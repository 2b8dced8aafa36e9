//! Rule growing (FOIL gain) and pruning (IREP* metric) over the column
//! store's value ranks.

use crate::columns::{index, Columns};
use crate::rule::{Condition, Op};

/// Positive/negative coverage counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Cover {
    pub p: usize,
    pub n: usize,
}

/// A condition together with its threshold's rank on its attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RankedCondition {
    pub cond: Condition,
    pub rank: u32,
}

impl RankedCondition {
    /// True when an instance of rank `rank` on the attribute satisfies
    /// the condition.
    pub(crate) fn admits(&self, rank: u32) -> bool {
        match self.cond.op {
            Op::Le => rank <= self.rank,
            Op::Ge => rank >= self.rank,
        }
    }
}

/// True when instance `i` satisfies every condition.
pub(crate) fn matches(cols: &Columns, conds: &[RankedCondition], i: u32) -> bool {
    conds.iter().all(|c| c.admits(cols.column(c.cond.attr)[i as usize]))
}

/// Class counts of the instances `idx`.
pub(crate) fn count(cols: &Columns, idx: &[u32]) -> Cover {
    let p = idx.iter().filter(|&&i| cols.positive(i)).count();
    Cover { p, n: idx.len() - p }
}

/// FOIL information gain of refining a rule from coverage `(p0, n0)` to
/// `(p1, n1)`: `p1 * (log2(p1/(p1+n1)) - log2(p0/(p0+n0)))`.
pub(crate) fn foil_gain(p0: usize, n0: usize, p1: usize, n1: usize) -> f64 {
    if p1 == 0 || p0 == 0 {
        return 0.0;
    }
    let before = (p0 as f64 / (p0 + n0) as f64).log2();
    let after = (p1 as f64 / (p1 + n1) as f64).log2();
    p1 as f64 * (after - before)
}

/// IREP* pruning metric on coverage counts: `(p - n) / (p + n)`, 0 when
/// the rule covers nothing.
pub(crate) fn prune_metric(c: Cover) -> f64 {
    if c.p + c.n == 0 {
        return 0.0;
    }
    (c.p as f64 - c.n as f64) / (c.p + c.n) as f64
}

/// Grows rules over one column store, reusing one rank histogram.
pub(crate) struct Grower<'c> {
    cols: &'c Columns<'c>,
    /// `(negatives, positives)` per rank of the attribute being scanned.
    hist: Vec<[u32; 2]>,
    /// One bit per rank with a non-empty histogram bin.
    touched: Vec<u64>,
}

impl<'c> Grower<'c> {
    pub(crate) fn new(cols: &'c Columns<'c>) -> Grower<'c> {
        let d = cols.max_distinct();
        Grower { cols, hist: vec![[0; 2]; d], touched: vec![0; d.div_ceil(64)] }
    }

    /// Extends `rule` on the grow set `grow_idx`: greedily appends the
    /// `attr <=/>= v` condition with the highest FOIL gain on the grow
    /// instances the rule covers, until no negatives are covered or no
    /// condition has positive gain. An empty `rule` grows a new rule;
    /// a non-empty one is the optimization pass's "revision".
    ///
    /// For each attribute the covered instances are binned by rank and
    /// the non-empty bins are visited in ascending order. Each bin is
    /// one run of equal values in the covered set sorted by value, so
    /// the prefix counts, the gains, their strict-`>` order and the
    /// thresholds are those of a sorted walk.
    pub(crate) fn grow(&mut self, mut rule: Vec<RankedCondition>, grow_idx: &[u32]) -> Vec<RankedCondition> {
        let cols = self.cols;
        let mut covered: Vec<u32> = grow_idx.iter().copied().filter(|&i| matches(cols, &rule, i)).collect();
        loop {
            let total = count(cols, &covered);
            if total.p == 0 || total.n == 0 {
                break;
            }
            let mut best_gain = 0.0f64;
            let mut best: Option<RankedCondition> = None;
            for attr in 0..cols.attr_count() {
                let column = cols.column(attr);
                for &i in &covered {
                    let r = column[i as usize] as usize;
                    self.hist[r][usize::from(cols.positive(i))] += 1;
                    self.touched[r / 64] |= 1 << (r % 64);
                }
                let mut prefix = Cover::default();
                let words = cols.values(attr).len().div_ceil(64);
                for w in 0..words {
                    let mut bits = std::mem::take(&mut self.touched[w]);
                    while bits != 0 {
                        let r = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let [n, p] = std::mem::take(&mut self.hist[r]);
                        let run_start_prefix = prefix;
                        prefix.p += p as usize;
                        prefix.n += n as usize;
                        // `attr <= v` covers the prefix through this run.
                        let gain_le = foil_gain(total.p, total.n, prefix.p, prefix.n);
                        if gain_le > best_gain {
                            best_gain = gain_le;
                            best = Some(self.condition(attr, Op::Le, r, &covered));
                        }
                        // `attr >= v` covers this run and everything after.
                        let (p_ge, n_ge) = (total.p - run_start_prefix.p, total.n - run_start_prefix.n);
                        let gain_ge = foil_gain(total.p, total.n, p_ge, n_ge);
                        if gain_ge > best_gain {
                            best_gain = gain_ge;
                            best = Some(self.condition(attr, Op::Ge, r, &covered));
                        }
                    }
                }
            }
            let Some(cond) = best else { break };
            rule.push(cond);
            let column = cols.column(cond.cond.attr);
            covered.retain(|&i| cond.admits(column[i as usize]));
        }
        rule
    }

    /// The condition `attr op v` for the value `v` of rank `r`. Equal
    /// values share a rank, and for all but the zeros equal means
    /// identical; a sorted walk takes a run's threshold from its first
    /// member in covered order, so when the rank holds both `-0.0` and
    /// `+0.0` the threshold is the first covered instance's zero.
    fn condition(&self, attr: usize, op: Op, r: usize, covered: &[u32]) -> RankedCondition {
        let rank = index(r);
        let threshold = if self.cols.signed_zero(attr) == Some(rank) {
            let first = covered.iter().find(|&&i| self.cols.column(attr)[i as usize] == rank).expect("a non-empty bin");
            self.cols.value_of(attr, *first)
        } else {
            self.cols.values(attr)[r]
        };
        RankedCondition { cond: Condition { attr, op, threshold }, rank }
    }
}

/// Prunes a rule by deleting a (possibly empty) suffix of its conditions,
/// keeping at least one condition, to maximize the IREP* metric on
/// `prune_idx`. Ties prefer shorter rules. The covered prune set is
/// narrowed one condition at a time, so each prefix costs one pass over
/// what the previous prefix covered.
///
/// An *empty* prune set carries no evidence either way — every prefix
/// ties at metric 0.0, and truncating to the shortest prefix on a tie
/// would silently gut the rule (tiny folds hit this: the stratified
/// split can round every instance of a class into the grow set). The
/// rule is returned unpruned in that case.
pub(crate) fn prune(mut rule: Vec<RankedCondition>, cols: &Columns, prune_idx: &[u32]) -> Vec<RankedCondition> {
    if rule.len() <= 1 || prune_idx.is_empty() {
        return rule;
    }
    let mut covered = prune_idx.to_vec();
    let mut best_keep = rule.len();
    let mut best_metric = f64::NEG_INFINITY;
    for (keep, cond) in (1..=rule.len()).zip(&rule) {
        let column = cols.column(cond.cond.attr);
        covered.retain(|&i| cond.admits(column[i as usize]));
        let metric = prune_metric(count(cols, &covered));
        // `>=` with increasing `keep` would prefer longer rules; iterate
        // short-to-long and use strict `>` so ties pick the shorter rule.
        if metric > best_metric {
            best_metric = metric;
            best_keep = keep;
        }
    }
    rule.truncate(best_keep);
    rule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::rule::Rule;

    fn dataset_1d(points: &[(f64, bool)]) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()], "pos", "neg");
        for &(x, y) in points {
            d.push(vec![x], y, 0);
        }
        d
    }

    fn all_idx(d: &Dataset) -> Vec<u32> {
        (0..u32::try_from(d.len()).expect("dataset sizes fit u32")).collect()
    }

    fn grow_rule(d: &Dataset) -> Rule {
        let cols = Columns::new(d);
        let conds = Grower::new(&cols).grow(Vec::new(), &all_idx(d));
        Rule::from_conditions(conds.iter().map(|c| c.cond).collect())
    }

    /// Ranks a threshold condition against `cols` (its value must occur).
    fn ranked(cols: &Columns, attr: usize, op: Op, threshold: f64) -> RankedCondition {
        let rank = cols.values(attr).iter().position(|&v| v == threshold).expect("threshold is a data value");
        RankedCondition { cond: Condition { attr, op, threshold }, rank: index(rank) }
    }

    #[test]
    fn foil_gain_prefers_purer_cover() {
        // From 10/10 to 8/1 is a big gain; to 8/8 is smaller.
        let pure = foil_gain(10, 10, 8, 1);
        let meh = foil_gain(10, 10, 8, 8);
        assert!(pure > meh);
        assert_eq!(foil_gain(10, 10, 0, 5), 0.0, "no positives, no gain");
    }

    #[test]
    fn grows_single_threshold_for_separable_data() {
        let d = dataset_1d(&[(0.1, false), (0.2, false), (0.3, false), (0.7, true), (0.8, true), (0.9, true)]);
        let rule = grow_rule(&d);
        assert_eq!(rule.len(), 1, "one threshold separates the classes: {rule:?}");
        assert!(rule.matches(&[0.8]));
        assert!(!rule.matches(&[0.2]));
    }

    #[test]
    fn grows_interval_for_band_data() {
        // positives in the middle band need two conditions.
        let mut pts = Vec::new();
        for i in 0..20 {
            let x = i as f64 / 20.0;
            pts.push((x, (0.4..0.6).contains(&x)));
        }
        let rule = grow_rule(&dataset_1d(&pts));
        assert!(rule.len() >= 2);
        assert!(rule.matches(&[0.45]));
        assert!(!rule.matches(&[0.1]));
        assert!(!rule.matches(&[0.9]));
    }

    #[test]
    fn grow_uses_most_informative_attribute() {
        // attr 0 is noise, attr 1 separates.
        let mut d = Dataset::new(vec!["noise".into(), "signal".into()], "pos", "neg");
        for i in 0..40 {
            let noise = (i * 7 % 40) as f64 / 40.0;
            let signal = i as f64 / 40.0;
            d.push(vec![noise, signal], signal >= 0.5, 0);
        }
        let rule = grow_rule(&d);
        assert!(rule.conditions().iter().all(|c| c.attr == 1), "{rule:?}");
    }

    #[test]
    fn prune_removes_overfit_suffix() {
        // A good first condition and a junk second one, and a prune set
        // where the junk hurts.
        let d = dataset_1d(&[(0.6, true), (0.7, true), (0.9, true), (0.2, false), (0.3, false)]);
        let cols = Columns::new(&d);
        let rule = vec![ranked(&cols, 0, Op::Ge, 0.6), ranked(&cols, 0, Op::Ge, 0.9)];
        let pruned = prune(rule, &cols, &all_idx(&d));
        assert_eq!(pruned.len(), 1, "suffix should be pruned: {pruned:?}");
    }

    #[test]
    fn empty_prune_set_leaves_rule_unpruned() {
        // Tiny folds can round a whole class into the grow set, leaving
        // nothing to prune on; every prefix then ties at metric 0.0 and
        // the tie-break used to truncate the rule to one condition.
        let d = dataset_1d(&[(0.6, true), (0.2, false)]);
        let cols = Columns::new(&d);
        let rule = vec![ranked(&cols, 0, Op::Ge, 0.2), ranked(&cols, 0, Op::Le, 0.6)];
        assert_eq!(prune(rule.clone(), &cols, &[]), rule, "no prune evidence means no pruning");
    }

    #[test]
    fn prune_keeps_good_conditions() {
        let d = dataset_1d(&[(0.6, true), (0.2, false)]);
        let cols = Columns::new(&d);
        let rule = vec![ranked(&cols, 0, Op::Ge, 0.6)];
        assert_eq!(prune(rule.clone(), &cols, &all_idx(&d)), rule);
    }

    #[test]
    fn prune_metric_values() {
        assert_eq!(prune_metric(Cover { p: 0, n: 0 }), 0.0);
        assert_eq!(prune_metric(Cover { p: 5, n: 0 }), 1.0);
        assert_eq!(prune_metric(Cover { p: 0, n: 5 }), -1.0);
        assert_eq!(prune_metric(Cover { p: 3, n: 1 }), 0.5);
    }

    #[test]
    fn revision_extends_the_seed() {
        let d = dataset_1d(&[(0.55, true), (0.6, false), (0.9, true), (0.2, false)]);
        let cols = Columns::new(&d);
        let seed = vec![ranked(&cols, 0, Op::Ge, 0.55)];
        let grown = Grower::new(&cols).grow(seed.clone(), &all_idx(&d));
        assert!(grown.len() > seed.len(), "the seed still covers a negative: {grown:?}");
        assert_eq!(&grown[..seed.len()], &seed[..], "seed conditions are preserved as a prefix");
    }

    #[test]
    fn matching_and_counts_use_ranks() {
        let d = dataset_1d(&[(0.6, true), (0.7, false), (0.1, true)]);
        let cols = Columns::new(&d);
        let rule = [ranked(&cols, 0, Op::Ge, 0.6)];
        let covered: Vec<u32> = all_idx(&d).into_iter().filter(|&i| matches(&cols, &rule, i)).collect();
        assert_eq!(covered, vec![0, 1]);
        assert_eq!(count(&cols, &covered), Cover { p: 1, n: 1 });
    }

    #[test]
    fn grow_on_empty_or_pure_returns_empty_rule() {
        let d = dataset_1d(&[(0.1, true), (0.2, true)]);
        assert!(grow_rule(&d).is_empty(), "no negatives to exclude");
        let d2 = dataset_1d(&[(0.1, false)]);
        assert!(grow_rule(&d2).is_empty(), "no positives to cover");
    }

    #[test]
    fn a_mixed_sign_zero_bin_takes_the_first_covered_zero() {
        // Both zeros sit in one bin; `x <= 0` is the best split, and its
        // threshold is the zero the grow set lists first.
        let d = dataset_1d(&[(-0.0, true), (0.0, true), (1.0, false), (2.0, false)]);
        let cols = Columns::new(&d);
        for (order, negative) in [([0, 1, 2, 3], true), ([1, 0, 2, 3], false)] {
            let conds = Grower::new(&cols).grow(Vec::new(), &order);
            assert_eq!(conds.len(), 1);
            assert_eq!(conds[0].cond.threshold, 0.0);
            assert_eq!(conds[0].cond.threshold.is_sign_negative(), negative, "grow order {order:?}");
        }
    }
}
