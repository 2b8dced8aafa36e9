//! The attribute-major column store one RIPPER fit runs over, and the
//! instance bitsets rule coverage is kept in.
//!
//! For each attribute the store holds every instance's *rank*: its
//! position among the attribute's sorted distinct values, where values
//! equal under `==` share a rank. A condition `attr <= v` or `attr >= v`
//! whose threshold is one of the attribute's values selects exactly the
//! instances whose rank is `<=` or `>=` the threshold's rank, so the fit
//! can grow, prune and cover rules with integer compares on one column.

use crate::data::Dataset;
use crate::rule::Op;

/// Per-attribute value ranks and the class labels of a dataset.
#[derive(Debug)]
pub(crate) struct Columns<'d> {
    data: &'d Dataset,
    n: usize,
    /// `ranks[attr * n + i]`: instance `i`'s rank on `attr`.
    ranks: Vec<u32>,
    /// Per attribute, the distinct values in ascending order.
    values: Vec<Vec<f64>>,
    /// Per attribute, the rank of its zero when the data holds both
    /// `-0.0` and `+0.0` there: the two compare equal and share a rank,
    /// but the threshold the fit emits for that rank must be whichever
    /// of them the grow set lists first (see [`crate::grow`]).
    signed_zero: Vec<Option<u32>>,
    positives: Bits,
}

impl<'d> Columns<'d> {
    /// Ranks every attribute of `data`.
    pub(crate) fn new(data: &'d Dataset) -> Columns<'d> {
        let n = data.len();
        let m = data.attr_count();
        let mut ranks = vec![0u32; m * n];
        let mut values = Vec::with_capacity(m);
        let mut signed_zero = Vec::with_capacity(m);
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(n);
        for attr in 0..m {
            order.clear();
            order.extend(data.instances().iter().enumerate().map(|(i, inst)| (inst.values[attr], index(i))));
            order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite values"));
            let column = &mut ranks[attr * n..(attr + 1) * n];
            let mut distinct: Vec<f64> = Vec::new();
            let mut zero = None;
            let mut j = 0;
            while j < order.len() {
                let v = order[j].0;
                let rank = index(distinct.len());
                let mut negative_zero = false;
                let mut positive_zero = false;
                while j < order.len() && order[j].0 == v {
                    negative_zero |= v == 0.0 && order[j].0.is_sign_negative();
                    positive_zero |= v == 0.0 && order[j].0.is_sign_positive();
                    column[order[j].1 as usize] = rank;
                    j += 1;
                }
                if negative_zero && positive_zero {
                    zero = Some(rank);
                }
                distinct.push(v);
            }
            values.push(distinct);
            signed_zero.push(zero);
        }
        let mut positives = Bits::zeros(n);
        for (i, _) in data.instances().iter().enumerate().filter(|(_, inst)| inst.positive) {
            positives.set(index(i));
        }
        Columns { data, n, ranks, values, signed_zero, positives }
    }

    /// Number of instances.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Number of attributes.
    pub(crate) fn attr_count(&self) -> usize {
        self.values.len()
    }

    /// Instance `i`'s value of `attr`, as stored in the dataset.
    pub(crate) fn value_of(&self, attr: usize, i: u32) -> f64 {
        self.data.instances()[i as usize].values[attr]
    }

    /// Every instance's rank on `attr`.
    pub(crate) fn column(&self, attr: usize) -> &[u32] {
        &self.ranks[attr * self.n..(attr + 1) * self.n]
    }

    /// The distinct values of `attr`, ascending; rank `r` is `values[r]`.
    pub(crate) fn values(&self, attr: usize) -> &[f64] {
        &self.values[attr]
    }

    /// The largest distinct-value count over all attributes.
    pub(crate) fn max_distinct(&self) -> usize {
        self.values.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The rank of `attr`'s zero when it holds both signed zeros.
    pub(crate) fn signed_zero(&self, attr: usize) -> Option<u32> {
        self.signed_zero[attr]
    }

    /// Instance `i`'s label.
    pub(crate) fn positive(&self, i: u32) -> bool {
        self.positives.contains(i)
    }

    /// The positive instances.
    pub(crate) fn positives(&self) -> &Bits {
        &self.positives
    }

    /// The instances whose rank on `attr` satisfies `op` against `rank`.
    pub(crate) fn select(&self, attr: usize, op: Op, rank: u32) -> Bits {
        let mut out = Bits::zeros(self.n);
        for (word, chunk) in out.words.iter_mut().zip(self.column(attr).chunks(64)) {
            for (b, &r) in chunk.iter().enumerate() {
                let hit = match op {
                    Op::Le => r <= rank,
                    Op::Ge => r >= rank,
                };
                *word |= u64::from(hit) << b;
            }
        }
        out
    }
}

/// A `u32` instance index (datasets are capped at `u32::MAX` rows).
pub(crate) fn index(i: usize) -> u32 {
    u32::try_from(i).expect("dataset sizes fit u32")
}

/// A fixed-length set of instance indices, one bit per instance. Bits
/// past the length are always clear, so counts need no masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Bits {
    len: usize,
    words: Vec<u64>,
}

impl Bits {
    /// The empty set over `len` instances.
    pub(crate) fn zeros(len: usize) -> Bits {
        Bits { len, words: vec![0; len.div_ceil(64)] }
    }

    /// Every instance of `0..len`.
    pub(crate) fn ones(len: usize) -> Bits {
        let mut bits = Bits { len, words: vec![u64::MAX; len.div_ceil(64)] };
        bits.clear_tail();
        bits
    }

    fn clear_tail(&mut self) {
        if self.len % 64 != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (self.len % 64)) - 1;
            }
        }
    }

    /// Adds instance `i`.
    pub(crate) fn set(&mut self, i: u32) {
        self.words[i as usize / 64] |= 1 << (i % 64);
    }

    /// True when instance `i` is in the set.
    pub(crate) fn contains(&self, i: u32) -> bool {
        self.words[i as usize / 64] >> (i % 64) & 1 == 1
    }

    /// Number of instances in the set.
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of instances in both sets.
    pub(crate) fn count_and(&self, other: &Bits) -> usize {
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Adds every instance of `other`.
    pub(crate) fn union_with(&mut self, other: &Bits) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Keeps only the instances also in `other`.
    pub(crate) fn intersect_with(&mut self, other: &Bits) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// The instances of `0..len` not in the set, ascending.
    pub(crate) fn absent(&self) -> Vec<u32> {
        let mut complement = self.clone();
        for w in &mut complement.words {
            *w = !*w;
        }
        complement.clear_tail();
        complement.indices()
    }

    /// The instances in the set, ascending.
    pub(crate) fn indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count());
        for (k, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(index(k * 64) + w.trailing_zeros());
                w &= w - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_follow_sorted_distinct_values() {
        let mut d = Dataset::new(vec!["x".into(), "y".into()], "p", "n");
        for (x, y) in [(3.0, 1.0), (1.0, 1.0), (3.0, -2.0), (2.5, 1.0)] {
            d.push(vec![x, y], x > 2.0, 0);
        }
        let cols = Columns::new(&d);
        assert_eq!(cols.column(0), &[2, 0, 2, 1]);
        assert_eq!(cols.values(0), &[1.0, 2.5, 3.0]);
        assert_eq!(cols.column(1), &[1, 1, 0, 1]);
        assert_eq!(cols.max_distinct(), 3);
        assert_eq!(cols.positives().indices(), vec![0, 2, 3]);
        assert_eq!(cols.select(0, Op::Ge, 1).indices(), vec![0, 2, 3]);
        assert_eq!(cols.select(1, Op::Le, 0).indices(), vec![2]);
    }

    #[test]
    fn signed_zeros_share_a_rank_and_are_flagged() {
        let mut d = Dataset::new(vec!["x".into(), "y".into()], "p", "n");
        for (x, y) in [(0.0, -0.0), (-0.0, -0.0), (1.0, 1.0)] {
            d.push(vec![x, y], true, 0);
        }
        let cols = Columns::new(&d);
        assert_eq!(cols.column(0), &[0, 0, 1]);
        assert_eq!(cols.signed_zero(0), Some(0));
        assert_eq!(cols.signed_zero(1), None, "one sign only: the stored value is exact");
    }

    #[test]
    fn bitset_algebra() {
        let mut a = Bits::zeros(130);
        for i in [0, 63, 64, 129] {
            a.set(i);
        }
        assert!(a.contains(129) && !a.contains(128));
        assert_eq!(a.count(), 4);
        let ones = Bits::ones(130);
        assert_eq!(ones.count(), 130, "the tail past the length stays clear");
        assert_eq!(a.count_and(&ones), 4);
        assert_eq!(a.absent().len(), 126);
        let mut b = Bits::zeros(130);
        b.set(5);
        b.union_with(&a);
        assert_eq!(b.indices(), vec![0, 5, 63, 64, 129]);
        b.intersect_with(&a);
        assert_eq!(b, a);
    }
}
