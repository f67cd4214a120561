//! The probe-column policy shared by both engines.
//!
//! Each engine plans its own rule bodies into its own operator type (IQL:
//! `iql_core`'s planner; Datalog: the engine's positive-atom walk), but both
//! face the same question once a scan has fully-bound columns: which one
//! should the index probe use? [`choose_probe`] is the one answer, written
//! over plain `(candidate, distinct-key count)` pairs so neither engine's
//! storage has to implement an interface for it.

/// The shared probe-selection policy: among `candidates` (in priority
/// order, each paired with its column's distinct-key count, if known),
/// pick the one with the most distinct keys — the most selective probe.
/// Ties keep the *earliest* candidate, so with candidates supplied in
/// column order the choice is deterministic and favours the lower column;
/// an unknown count counts as zero distinct keys, so an all-unknown
/// candidate list yields the first candidate rather than none.
pub fn choose_probe<C>(candidates: impl IntoIterator<Item = (C, Option<usize>)>) -> Option<C> {
    let mut best: Option<(usize, C)> = None;
    for (cand, distinct) in candidates {
        let d = distinct.unwrap_or(0);
        if best.as_ref().is_none_or(|(bd, _)| d > *bd) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, cand)| cand)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct-key counts of a toy relation's columns: 4, 25 and 25 for
    /// columns 0–2, unknown beyond.
    fn toy(cols: &[usize]) -> Vec<(usize, Option<usize>)> {
        let distinct = |col| match col {
            0 => Some(4),
            1 | 2 => Some(25),
            _ => None,
        };
        cols.iter().map(|&col| (col, distinct(col))).collect()
    }

    #[test]
    fn probe_choice_prefers_most_distinct_then_earliest() {
        assert_eq!(choose_probe(toy(&[0, 1, 2])), Some(1));
        assert_eq!(choose_probe(toy(&[2, 1, 0])), Some(2));
        assert_eq!(choose_probe(toy(&[])), None);
        // All-unknown candidates fall back to the first.
        assert_eq!(choose_probe(toy(&[3, 4])), Some(3));
    }
}
