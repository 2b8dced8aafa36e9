//! The row-wise reference RIPPER fit the fit oracle compares against:
//! the IREP* rule growth, MDL stopping, optimization passes, FOIL-gain
//! grow, IREP*-metric prune, stratified split and description-length
//! arithmetic, as a direct walk over the instances (a sort of the
//! covered set per attribute per grow step, and a `matches` call per
//! row and rule for every coverage count).
//!
//! Shared by `crates/ripper/tests/prop_fit_oracle.rs` and, through a
//! `#[path]` include, by the realistic-corpus case in the root
//! `tests/ripper_fit_oracle.rs`, which needs the trace pipeline this
//! crate does not depend on.

use wts_ripper::{attribute_stats, Condition, Dataset, Instance, Op, RipperConfig, Rule, RuleSet};

pub fn reference_fit(cfg: &RipperConfig, data: &Dataset) -> RuleSet {
    assert!(cfg.grow_fraction > 0.0 && cfg.grow_fraction < 1.0, "grow fraction must be in (0,1)");
    let mut state = Fit { cfg: cfg.clone(), data, split_counter: 0 };
    state.run()
}

// ---- description length -------------------------------------------

const DL_BUDGET: f64 = 64.0;
const THRESHOLD_BITS: f64 = 8.0;

fn log2_binomial(n: usize, k: usize) -> f64 {
    debug_assert!(k <= n, "k must be at most n");
    let k = k.min(n - k.min(n));
    if k == 0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for i in 1..=k {
        sum += ((n - k + i) as f64).log2() - (i as f64).log2();
    }
    sum
}

fn subset_dl(total: usize, errors: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    log2_binomial(total, errors.min(total)) + ((total + 1) as f64).log2()
}

fn data_dl(covered: usize, fp: usize, uncovered: usize, fn_: usize) -> f64 {
    subset_dl(covered, fp) + subset_dl(uncovered, fn_)
}

fn theory_dl(conds: usize, attr_count: usize) -> f64 {
    if conds == 0 {
        return 0.0;
    }
    let per_cond = (attr_count.max(2) as f64).log2() + 1.0 + THRESHOLD_BITS;
    0.5 * (conds as f64 * per_cond + ((conds + 1) as f64).log2())
}

fn total_dl(
    rule_cond_counts: &[usize],
    attr_count: usize,
    covered: usize,
    fp: usize,
    uncovered: usize,
    fn_: usize,
) -> f64 {
    let theory: f64 = rule_cond_counts.iter().map(|&c| theory_dl(c, attr_count)).sum();
    theory + data_dl(covered, fp, uncovered, fn_)
}

// ---- stratified split -----------------------------------------------

fn stratified_split(instances: &[Instance], grow_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    debug_assert!((0.0..=1.0).contains(&grow_fraction));
    let mut pos: Vec<usize> = Vec::new();
    let mut neg: Vec<usize> = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        if inst.positive {
            pos.push(i);
        } else {
            neg.push(i);
        }
    }
    let mut rng = SplitMix64 { state: seed };
    shuffle(&mut pos, &mut rng);
    shuffle(&mut neg, &mut rng);
    let mut grow = Vec::new();
    let mut prune = Vec::new();
    for class in [pos, neg] {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((class.len() as f64) * grow_fraction).round() as usize;
        grow.extend_from_slice(&class[..cut.min(class.len())]);
        prune.extend_from_slice(&class[cut.min(class.len())..]);
    }
    (grow, prune)
}

fn shuffle(v: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = usize::try_from(rng.next() % (i as u64 + 1)).expect("residue mod a usize fits usize");
        v.swap(i, j);
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ---- grow and prune -------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Cover {
    p: usize,
    n: usize,
}

fn coverage(rule: &Rule, data: &Dataset, idx: &[u32]) -> Cover {
    let mut c = Cover::default();
    for &i in idx {
        let inst = &data.instances()[i as usize];
        if rule.matches(&inst.values) {
            if inst.positive {
                c.p += 1;
            } else {
                c.n += 1;
            }
        }
    }
    c
}

fn foil_gain(p0: usize, n0: usize, p1: usize, n1: usize) -> f64 {
    if p1 == 0 || p0 == 0 {
        return 0.0;
    }
    let before = (p0 as f64 / (p0 + n0) as f64).log2();
    let after = (p1 as f64 / (p1 + n1) as f64).log2();
    p1 as f64 * (after - before)
}

fn grow_rule(data: &Dataset, grow_idx: &[u32]) -> Rule {
    let mut rule = Rule::new();
    let mut covered: Vec<u32> = grow_idx.to_vec();
    let m = data.attr_count();
    let mut column: Vec<(f64, bool)> = Vec::new();

    loop {
        let Cover { p: p0, n: n0 } = count(data, &covered);
        if p0 == 0 || n0 == 0 {
            break;
        }
        let mut best_gain = 0.0f64;
        let mut best: Option<Condition> = None;
        for attr in 0..m {
            column.clear();
            column.extend(covered.iter().map(|&i| {
                let inst = &data.instances()[i as usize];
                (inst.values[attr], inst.positive)
            }));
            column.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
            let total = Cover { p: p0, n: n0 };
            let mut prefix = Cover::default();
            let mut j = 0;
            while j < column.len() {
                let v = column[j].0;
                let run_start_prefix = prefix;
                while j < column.len() && column[j].0 == v {
                    if column[j].1 {
                        prefix.p += 1;
                    } else {
                        prefix.n += 1;
                    }
                    j += 1;
                }
                let gain_le = foil_gain(total.p, total.n, prefix.p, prefix.n);
                if gain_le > best_gain {
                    best_gain = gain_le;
                    best = Some(Condition { attr, op: Op::Le, threshold: v });
                }
                let (p_ge, n_ge) = (total.p - run_start_prefix.p, total.n - run_start_prefix.n);
                let gain_ge = foil_gain(total.p, total.n, p_ge, n_ge);
                if gain_ge > best_gain {
                    best_gain = gain_ge;
                    best = Some(Condition { attr, op: Op::Ge, threshold: v });
                }
            }
        }
        let Some(cond) = best else { break };
        rule.push(cond);
        covered.retain(|&i| cond.matches(&data.instances()[i as usize].values));
    }
    rule
}

fn grow_from(mut seed: Rule, data: &Dataset, grow_idx: &[u32]) -> Rule {
    let covered: Vec<u32> =
        grow_idx.iter().copied().filter(|&i| seed.matches(&data.instances()[i as usize].values)).collect();
    let grown = grow_rule(data, &covered);
    for &c in grown.conditions() {
        seed.push(c);
    }
    seed
}

fn prune_metric(c: Cover) -> f64 {
    if c.p + c.n == 0 {
        return 0.0;
    }
    (c.p as f64 - c.n as f64) / (c.p + c.n) as f64
}

fn prune_rule(rule: Rule, data: &Dataset, prune_idx: &[u32]) -> Rule {
    if rule.len() <= 1 || prune_idx.is_empty() {
        return rule;
    }
    let mut best_keep = rule.len();
    let mut best_metric = f64::NEG_INFINITY;
    for keep in 1..=rule.len() {
        let mut candidate = rule.clone();
        candidate.truncate(keep);
        let metric = prune_metric(coverage(&candidate, data, prune_idx));
        if metric > best_metric {
            best_metric = metric;
            best_keep = keep;
        }
    }
    let mut pruned = rule;
    pruned.truncate(best_keep);
    pruned
}

fn count(data: &Dataset, idx: &[u32]) -> Cover {
    let mut c = Cover::default();
    for &i in idx {
        if data.instances()[i as usize].positive {
            c.p += 1;
        } else {
            c.n += 1;
        }
    }
    c
}

// ---- the training loop ----------------------------------------------

struct Fit<'d> {
    cfg: RipperConfig,
    data: &'d Dataset,
    split_counter: u64,
}

impl Fit<'_> {
    fn all_indices(&self) -> Vec<u32> {
        (0..u32::try_from(self.data.len()).expect("dataset sizes fit u32")).collect()
    }

    fn run(&mut self) -> RuleSet {
        let all = self.all_indices();
        if self.data.negatives() == 0 && self.data.positives() > 0 {
            return self.finish(vec![Rule::new()]);
        }
        let mut rules = self.irep_star(&all, Vec::new());

        for _round in 0..self.cfg.optimization_rounds {
            rules = self.optimize(rules);
            let uncovered: Vec<u32> = self.uncovered(&rules, &all);
            if self.has_positives(&uncovered) {
                rules = self.irep_star(&uncovered, rules);
            }
            rules = self.delete_harmful(rules);
        }

        self.finish(rules)
    }

    fn irep_star(&mut self, remaining: &[u32], mut rules: Vec<Rule>) -> Vec<Rule> {
        let all = self.all_indices();
        let mut remaining: Vec<u32> = remaining.to_vec();
        let mut min_dl = self.ruleset_dl(&rules, &all);

        while self.has_positives(&remaining) {
            let (grow, prune) = self.split(&remaining);
            let mut rule = grow_rule(self.data, &grow);
            if rule.is_empty() {
                break;
            }
            rule = prune_rule(rule, self.data, &prune);
            let c = coverage(&rule, self.data, &prune);
            if c.n > c.p {
                break;
            }
            rules.push(rule);
            let dl = self.ruleset_dl(&rules, &all);
            if dl > min_dl + DL_BUDGET {
                rules.pop();
                break;
            }
            min_dl = min_dl.min(dl);
            let newest = rules.last().expect("just pushed");
            remaining.retain(|&i| !newest.matches(&self.data.instances()[i as usize].values));
        }
        rules
    }

    fn optimize(&mut self, mut rules: Vec<Rule>) -> Vec<Rule> {
        let all = self.all_indices();
        for i in 0..rules.len() {
            let pertinent: Vec<u32> = all
                .iter()
                .copied()
                .filter(|&x| {
                    let v = &self.data.instances()[x as usize].values;
                    !rules[..i].iter().any(|r| r.matches(v))
                })
                .collect();
            if !self.has_positives(&pertinent) {
                continue;
            }
            let (grow, prune) = self.split(&pertinent);

            let mut replacement = grow_rule(self.data, &grow);
            if !replacement.is_empty() {
                replacement = prune_rule(replacement, self.data, &prune);
            }
            let mut revision = grow_from(rules[i].clone(), self.data, &grow);
            if !revision.is_empty() {
                revision = prune_rule(revision, self.data, &prune);
            }

            let mut best = rules.clone();
            let mut best_dl = self.ruleset_dl(&rules, &all);
            for candidate in [replacement, revision] {
                if candidate.is_empty() {
                    continue;
                }
                let mut variant = rules.clone();
                variant[i] = candidate;
                let dl = self.ruleset_dl(&variant, &all);
                if dl < best_dl {
                    best_dl = dl;
                    best = variant;
                }
            }
            rules = best;
        }
        rules
    }

    fn delete_harmful(&mut self, mut rules: Vec<Rule>) -> Vec<Rule> {
        let all = self.all_indices();
        let mut i = 0;
        while i < rules.len() {
            let with = self.ruleset_dl(&rules, &all);
            let removed = rules.remove(i);
            let without = self.ruleset_dl(&rules, &all);
            if with <= without {
                rules.insert(i, removed);
                i += 1;
            }
        }
        rules
    }

    fn finish(&self, rules: Vec<Rule>) -> RuleSet {
        let (stats, default_stats) = attribute_stats(&rules, self.data);
        RuleSet::new(
            self.data.attr_names().to_vec(),
            self.data.pos_label(),
            self.data.neg_label(),
            rules,
            stats,
            default_stats,
        )
    }

    fn ruleset_dl(&self, rules: &[Rule], idx: &[u32]) -> f64 {
        let mut covered = 0usize;
        let mut fp = 0usize;
        let mut uncovered = 0usize;
        let mut fn_ = 0usize;
        for &i in idx {
            let inst = &self.data.instances()[i as usize];
            if rules.iter().any(|r| r.matches(&inst.values)) {
                covered += 1;
                if !inst.positive {
                    fp += 1;
                }
            } else {
                uncovered += 1;
                if inst.positive {
                    fn_ += 1;
                }
            }
        }
        let counts: Vec<usize> = rules.iter().map(Rule::len).collect();
        total_dl(&counts, self.data.attr_count(), covered, fp, uncovered, fn_)
    }

    fn uncovered(&self, rules: &[Rule], idx: &[u32]) -> Vec<u32> {
        idx.iter()
            .copied()
            .filter(|&i| !rules.iter().any(|r| r.matches(&self.data.instances()[i as usize].values)))
            .collect()
    }

    fn has_positives(&self, idx: &[u32]) -> bool {
        idx.iter().any(|&i| self.data.instances()[i as usize].positive)
    }

    fn split(&mut self, idx: &[u32]) -> (Vec<u32>, Vec<u32>) {
        self.split_counter += 1;
        let insts: Vec<_> = idx.iter().map(|&i| self.data.instances()[i as usize].clone()).collect();
        let (g, p) = stratified_split(&insts, self.cfg.grow_fraction, self.cfg.seed ^ self.split_counter);
        (g.into_iter().map(|k| idx[k]).collect(), p.into_iter().map(|k| idx[k]).collect())
    }
}

/// Asserts the fit equals the reference, rule set and stats alike, down
/// to the bits of every threshold: `-0.0 == 0.0` under `==`, so the
/// equality alone would not show a threshold whose zero changed sign.
pub fn assert_matches_reference(data: &Dataset, cfg: &RipperConfig) -> RuleSet {
    let fitted = cfg.fit(data);
    let expected = reference_fit(cfg, data);
    assert_eq!(fitted, expected, "fit diverged from the reference on {data} with {cfg:?}");
    assert_eq!(fitted.stats(), expected.stats());
    assert_eq!(fitted.default_stats(), expected.default_stats());
    let bits = |r: &RuleSet| -> Vec<u64> {
        r.rules().iter().flat_map(|rule| rule.conditions().iter().map(|c| c.threshold.to_bits())).collect()
    };
    assert_eq!(bits(&fitted), bits(&expected), "a threshold changed sign: {fitted} vs {expected}");
    fitted
}
