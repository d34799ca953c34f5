//! Association rules derived from a maintained frequent-itemset model.
//!
//! The paper's motivating analyst (§2.2) works with *rules* ("the set of
//! frequent itemsets discovered from the database is used by an analyst
//! to devise marketing strategies"). Rules are a pure function of the
//! maintained model: for every frequent itemset `Z` and non-empty proper
//! subset `A ⊂ Z`, the rule `A ⇒ Z∖A` holds with
//! `confidence = σ(Z)/σ(A)` and `lift = confidence / σ(Z∖A)`. Because
//! BORDERS keeps exact supports for all of `L`, rule derivation never
//! rescans data — maintaining the itemsets maintains the rules.

use crate::model::FrequentItemsets;
use demon_types::ItemSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An association rule `antecedent ⇒ consequent` with its statistics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// The left-hand side `A`.
    pub antecedent: ItemSet,
    /// The right-hand side `Z ∖ A`.
    pub consequent: ItemSet,
    /// Support fraction of `Z = A ∪ consequent`.
    pub support: f64,
    /// `σ(Z) / σ(A)`.
    pub confidence: f64,
    /// `confidence / σ(consequent)` — how much the antecedent raises the
    /// consequent's probability over its base rate.
    pub lift: f64,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ⇒ {} (sup {:.3}, conf {:.3}, lift {:.2})",
            self.antecedent, self.consequent, self.support, self.confidence, self.lift
        )
    }
}

/// Derives all rules meeting `min_confidence` from the model's frequent
/// itemsets of size ≥ 2.
///
/// Antecedents are enumerated as all non-empty proper subsets of each
/// frequent itemset; the classic confidence-monotonicity prune applies
/// (if `A ⇒ Z∖A` fails, any `A' ⊂ A` fails too, since `σ(A') ≥ σ(A)`),
/// implemented by walking antecedents from large to small.
pub fn derive_rules(model: &FrequentItemsets, min_confidence: f64) -> Vec<Rule> {
    assert!(
        (0.0..=1.0).contains(&min_confidence),
        "confidence must be in [0,1]"
    );
    let n = model.n_transactions();
    if n == 0 {
        return Vec::new();
    }
    let mut rules = Vec::new();
    for (z, &z_count) in model.frequent() {
        if z.len() < 2 {
            continue;
        }
        // Enumerate antecedents by size, large → small, pruning the
        // subsets of failed antecedents.
        let mut level: Vec<ItemSet> = z.proper_maximal_subsets().collect();
        while !level.is_empty() {
            let mut survivors: Vec<ItemSet> = Vec::new();
            for a in &level {
                if a.is_empty() {
                    continue;
                }
                let Some(a_count) = model.support(a) else {
                    continue; // only frequent subsets are tracked; σ(A) ≥ σ(Z) ≥ κ·n so this is defensive
                };
                if a_count == 0 {
                    continue;
                }
                let confidence = z_count as f64 / a_count as f64;
                if confidence < min_confidence {
                    continue; // prune: smaller subsets of `a` only do worse
                }
                let consequent: ItemSet = z
                    .items()
                    .iter()
                    .copied()
                    .filter(|i| !a.contains(*i))
                    .collect();
                let cons_frac = model
                    .support(&consequent)
                    .map(|c| c as f64 / n as f64)
                    .unwrap_or(0.0);
                let lift = if cons_frac > 0.0 {
                    confidence / cons_frac
                } else {
                    f64::INFINITY
                };
                rules.push(Rule {
                    antecedent: a.clone(),
                    consequent,
                    support: z_count as f64 / n as f64,
                    confidence,
                    lift,
                });
                survivors.push(a.clone());
            }
            // Next level: maximal subsets of surviving antecedents.
            let mut next: Vec<ItemSet> = Vec::new();
            for s in survivors {
                for sub in s.proper_maximal_subsets() {
                    if !sub.is_empty() && !next.contains(&sub) {
                        next.push(sub);
                    }
                }
            }
            level = next;
        }
    }
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.total_cmp(&a.support))
            .then(a.antecedent.cmp(&b.antecedent))
            .then(a.consequent.cmp(&b.consequent))
    });
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TxStore;
    use demon_types::{BlockId, Item, MinSupport, Tid, Transaction, TxBlock};

    fn model_over(txs: &[&[u32]], kappa: f64) -> FrequentItemsets {
        let block = TxBlock::new(
            BlockId(1),
            txs.iter()
                .enumerate()
                .map(|(i, items)| {
                    Transaction::new(Tid(i as u64 + 1), items.iter().copied().map(Item).collect())
                })
                .collect(),
        );
        let mut store = TxStore::new(8);
        store.add_block(block);
        FrequentItemsets::mine_from(&store, &[BlockId(1)], MinSupport::new(kappa).unwrap())
            .unwrap()
    }

    #[test]
    fn derives_rules_with_exact_statistics() {
        // 0 appears 4×, {0,1} 3×, 1 appears 3×.
        let m = model_over(&[&[0, 1], &[0, 1], &[0, 1], &[0], &[2]], 0.2);
        let rules = derive_rules(&m, 0.0);
        let r01 = rules
            .iter()
            .find(|r| r.antecedent == ItemSet::from_ids(&[0]))
            .expect("0 ⇒ 1 exists");
        assert_eq!(r01.consequent, ItemSet::from_ids(&[1]));
        assert!((r01.support - 0.6).abs() < 1e-12);
        assert!((r01.confidence - 0.75).abs() < 1e-12);
        assert!((r01.lift - 0.75 / 0.6).abs() < 1e-12);
        let r10 = rules
            .iter()
            .find(|r| r.antecedent == ItemSet::from_ids(&[1]))
            .expect("1 ⇒ 0 exists");
        assert!((r10.confidence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_confidence_filters() {
        let m = model_over(&[&[0, 1], &[0, 1], &[0, 1], &[0], &[2]], 0.2);
        let rules = derive_rules(&m, 0.9);
        assert!(rules.iter().all(|r| r.confidence >= 0.9));
        assert!(rules
            .iter()
            .any(|r| r.antecedent == ItemSet::from_ids(&[1])));
        assert!(!rules
            .iter()
            .any(|r| r.antecedent == ItemSet::from_ids(&[0])));
    }

    #[test]
    fn three_item_rules_enumerate_all_antecedents() {
        // {0,1,2} frequent in every transaction: all 6 directed rules hold
        // with confidence 1.
        let m = model_over(&[&[0, 1, 2], &[0, 1, 2], &[0, 1, 2]], 0.5);
        let rules = derive_rules(&m, 0.99);
        let from_triple: Vec<&Rule> = rules
            .iter()
            .filter(|r| r.antecedent.len() + r.consequent.len() == 3)
            .collect();
        // Antecedents: 3 singletons + 3 pairs.
        assert_eq!(from_triple.len(), 6);
        for r in from_triple {
            assert!((r.confidence - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rules_sorted_by_confidence_then_support() {
        let m = model_over(
            &[&[0, 1], &[0, 1], &[0, 1], &[0], &[1, 2], &[1, 2], &[2], &[2]],
            0.1,
        );
        let rules = derive_rules(&m, 0.0);
        for w in rules.windows(2) {
            assert!(
                w[0].confidence >= w[1].confidence
                    || (w[0].confidence == w[1].confidence && w[0].support >= w[1].support)
            );
        }
    }

    #[test]
    fn empty_model_yields_no_rules() {
        let m = FrequentItemsets::empty(MinSupport::new(0.1).unwrap(), 4);
        assert!(derive_rules(&m, 0.5).is_empty());
    }

    #[test]
    fn display_is_readable() {
        let m = model_over(&[&[0, 1], &[0, 1]], 0.5);
        let rules = derive_rules(&m, 0.5);
        let s = rules[0].to_string();
        assert!(s.contains('⇒') && s.contains("conf"));
    }

    #[test]
    #[should_panic(expected = "confidence must be in")]
    fn rejects_invalid_confidence() {
        let m = model_over(&[&[0]], 0.5);
        derive_rules(&m, 1.5);
    }
}
