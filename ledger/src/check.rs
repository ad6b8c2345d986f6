//! The correctness gate: what was attempted, what failed, and the oracle
//! comparison every workload samples.

use crate::adapter::{self, Outcome, Result};
use crate::load::{Rng, Text};

/// Counts operations and failures of one run. A failed check is kept with
/// its reason (the first few) so the run can say what went wrong.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Gate {
    /// One operation or check; `why` is evaluated only on failure.
    pub fn expect(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(why());
        }
    }

    /// Adds operations counted elsewhere (for example on client threads).
    pub fn add(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{failed} of {attempted} {what} failed"));
        }
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Compares `outcome` for `query` with `definition2_scan` over a handful of
/// texts: the ones the outcome matched (up to four), the ones in `must`,
/// and two picked at random. On those texts the qualifying sequences must
/// be exactly the oracle's, so a missing match, an extra one or a wrong
/// rectangle all fail. `text_of` resolves a global text id.
pub fn oracle_check<'a>(
    gate: &mut Gate,
    outcome: &Outcome,
    query: &[u32],
    must: &[u32],
    total_texts: u32,
    text_of: impl Fn(u32) -> &'a Text,
    rng: &mut Rng,
) -> Result<()> {
    let mut ids: Vec<u32> = outcome.matches.iter().take(4).map(|m| m.text).collect();
    ids.extend_from_slice(must);
    ids.extend((0..2).map(|_| rng.below(total_texts as usize) as u32));
    ids.sort_unstable();
    ids.dedup();
    let sub: Vec<Text> = ids.iter().map(|&id| text_of(id).clone()).collect();

    let mut want: Vec<(u32, u32, u32)> = adapter::oracle(&sub, query)?
        .into_iter()
        .map(|(local, start, end)| (ids[local as usize], start, end))
        .collect();
    want.sort_unstable();
    let mut got: Vec<(u32, u32, u32)> = adapter::sequences(outcome)
        .into_iter()
        .filter(|(text, _, _)| ids.binary_search(text).is_ok())
        .collect();
    got.sort_unstable();
    gate.expect(got == want, || {
        format!(
            "oracle mismatch on texts {ids:?}: index has {} sequences, definition2_scan {}",
            got.len(),
            want.len()
        )
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_and_keeps_the_first_reasons() {
        let mut gate = Gate::default();
        gate.expect(true, || unreachable!());
        for i in 0..10 {
            gate.expect(false, || format!("bad {i}"));
        }
        gate.add(100, 0, "requests");
        gate.add(50, 5, "requests");
        assert_eq!(gate.attempted, 161);
        assert_eq!(gate.failed, 15);
        assert_eq!(gate.reasons().len(), 8);
        assert_eq!(gate.reasons()[0], "bad 0");
        assert!((gate.failed_share() - 15.0 / 161.0).abs() < 1e-12);
    }
}
