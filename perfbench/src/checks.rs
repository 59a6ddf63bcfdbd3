//! Output checks. Every value the benchmark writes encodes where it
//! came from, so each answer the runtime gives can be checked without
//! a lock-step reference run. A failed check counts as a failed op and
//! makes the run exit non-zero.

use cxl0_workloads::WorkloadOp;

/// Failures seen by one client, with the first few messages kept for
/// the report.
#[derive(Debug, Default, Clone)]
pub struct Faults {
    /// Number of failed calls or checks.
    pub count: u64,
    /// The first messages, for stderr.
    pub first: Vec<String>,
}

impl Faults {
    /// Records one failure.
    pub fn fail(&mut self, msg: impl FnOnce() -> String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(msg());
        }
    }

    /// Records the failure in `r`, if any.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(|| e);
        }
    }

    /// Adds `other`'s failures.
    pub fn absorb(&mut self, other: Faults) {
        self.count += other.count;
        for m in other.first {
            if self.first.len() < 8 {
                self.first.push(m);
            }
        }
    }
}

/// Map values: `key << 32 | writer << 30 | seq`, where `seq` is the
/// position of the writing `Insert` in that writer's generated stream.
/// Writer [`MapValues::PREFILL`] wrote the prefill (always `seq` 0).
pub struct MapValues {
    streams: Vec<Vec<WorkloadOp>>,
}

impl MapValues {
    /// Writer id of the prefill.
    pub const PREFILL: u64 = 3;

    /// Checks against the writers' generated streams (writer `w` is
    /// `streams[w]`).
    pub fn new(streams: Vec<Vec<WorkloadOp>>) -> Self {
        MapValues { streams }
    }

    /// The value writer `w` stores for `key` at stream position `seq`.
    pub fn encode(key: u64, w: u64, seq: u64) -> u64 {
        debug_assert!(key < 1 << 32 && w < 4 && seq < 1 << 30);
        key << 32 | w << 30 | seq
    }

    /// Checks that `v`, read under `key`, is a value some writer wrote
    /// to that key.
    pub fn check(&self, key: u64, v: u64) -> Result<(), String> {
        let (k, w, seq) = (v >> 32, (v >> 30) & 3, v & ((1 << 30) - 1));
        if k != key {
            return Err(format!("map key {key} returned key {k}'s value {v:#x}"));
        }
        let written = if w == Self::PREFILL {
            seq == 0
        } else {
            self.streams
                .get(w as usize)
                .and_then(|s| s.get(seq as usize))
                .is_some_and(|op| matches!(op, WorkloadOp::Insert(k, _) if *k == key))
        };
        if written {
            Ok(())
        } else {
            Err(format!(
                "map key {key} returned {v:#x}, which was never written"
            ))
        }
    }
}

/// Queue values: `(producer + 1) << 40 | seq`, `seq` counting that
/// producer's enqueues from 0.
pub fn queue_value(producer: usize, seq: u64) -> u64 {
    ((producer as u64 + 1) << 40) | seq
}

fn queue_decode(v: u64) -> Option<(usize, u64)> {
    let p = (v >> 40) as usize;
    (p >= 1).then(|| (p - 1, v & ((1 << 40) - 1)))
}

/// One consumer's view of a FIFO queue: it must see each producer's
/// values in increasing order, and remembers which it saw so the final
/// drain can prove the multiset was conserved.
#[derive(Debug, Clone)]
pub struct QueueConsumer {
    last: Vec<Option<u64>>,
    seen: Vec<Vec<u64>>,
}

impl QueueConsumer {
    /// A consumer over `producers` producers.
    pub fn new(producers: usize) -> Self {
        QueueConsumer {
            last: vec![None; producers],
            seen: vec![Vec::new(); producers],
        }
    }

    /// Checks one dequeued value.
    pub fn observe(&mut self, v: u64) -> Result<(), String> {
        let Some((p, seq)) = queue_decode(v).filter(|(p, _)| *p < self.last.len()) else {
            return Err(format!("dequeued {v:#x}, which no producer wrote"));
        };
        if self.last[p].is_some_and(|l| seq <= l) {
            return Err(format!(
                "producer {p}'s value {seq} dequeued after its value {}",
                self.last[p].unwrap_or(0)
            ));
        }
        self.last[p] = Some(seq);
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        let bits = &mut self.seen[p];
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        bits[word] |= 1 << bit;
        Ok(())
    }
}

/// Checks that `consumers` together saw every value `produced[p]`
/// producer `p` enqueued exactly once, and nothing else.
pub fn queue_conserved(produced: &[u64], consumers: &[QueueConsumer]) -> Result<(), String> {
    for (p, &n) in produced.iter().enumerate() {
        let words = n.div_ceil(64) as usize;
        let mut union = vec![0u64; words];
        for c in consumers {
            for (i, &w) in c.seen[p].iter().enumerate() {
                let valid = if i < words { w & !union[i] } else { 0 };
                if valid != w {
                    return Err(format!(
                        "producer {p}: a value in word {i} was dequeued twice or never enqueued"
                    ));
                }
                union[i] |= w;
            }
        }
        let got: u64 = union.iter().map(|w| u64::from(w.count_ones())).sum();
        if got != n {
            return Err(format!(
                "producer {p}: enqueued {n} values, {got} came back out"
            ));
        }
    }
    Ok(())
}

/// Compares the set the structure reports with the model's.
pub fn same_set(what: &str, got: &[u64], model: impl Iterator<Item = u64>) -> Result<(), String> {
    let mut want: Vec<u64> = model.collect();
    let mut got = got.to_vec();
    want.sort_unstable();
    got.sort_unstable();
    if got == want {
        return Ok(());
    }
    let missing: Vec<_> = want
        .iter()
        .filter(|k| got.binary_search(k).is_err())
        .take(4)
        .collect();
    let extra: Vec<_> = got
        .iter()
        .filter(|k| want.binary_search(k).is_err())
        .take(4)
        .collect();
    Err(format!(
        "{what}: {} keys, model has {}; missing {missing:?}, unexpected {extra:?}",
        got.len(),
        want.len()
    ))
}

/// Compares one answer with the model's.
pub fn expect<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, model says {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> MapValues {
        MapValues::new(vec![vec![
            WorkloadOp::Read(5),
            WorkloadOp::Insert(5, 0),
            WorkloadOp::Remove(7),
        ]])
    }

    #[test]
    fn map_accepts_written_values() {
        let m = values();
        assert!(m.check(5, MapValues::encode(5, 0, 1)).is_ok());
        assert!(m
            .check(9, MapValues::encode(9, MapValues::PREFILL, 0))
            .is_ok());
    }

    #[test]
    fn map_rejects_a_foreign_value() {
        let err = values().check(7, MapValues::encode(5, 0, 1)).unwrap_err();
        assert!(err.contains("key 5's value"), "{err}");
    }

    #[test]
    fn map_rejects_a_value_never_written() {
        let m = values();
        // Position 0 is a read and position 2 a remove; writer 1 has no
        // stream; the prefill only ever wrote seq 0.
        for v in [
            MapValues::encode(5, 0, 0),
            MapValues::encode(7, 0, 2),
            MapValues::encode(5, 1, 1),
            MapValues::encode(5, MapValues::PREFILL, 4),
        ] {
            assert!(m.check(v >> 32, v).is_err(), "{v:#x} accepted");
        }
    }

    #[test]
    fn queue_accepts_fifo_and_conservation() {
        let produced = [3, 2];
        let (mut a, mut b) = (QueueConsumer::new(2), QueueConsumer::new(2));
        for v in [queue_value(0, 0), queue_value(1, 0), queue_value(0, 2)] {
            a.observe(v).unwrap();
        }
        for v in [queue_value(0, 1), queue_value(1, 1)] {
            b.observe(v).unwrap();
        }
        queue_conserved(&produced, &[a, b]).unwrap();
    }

    #[test]
    fn queue_rejects_out_of_order_values() {
        let mut c = QueueConsumer::new(1);
        c.observe(queue_value(0, 4)).unwrap();
        assert!(c.observe(queue_value(0, 3)).is_err());
        assert!(c.observe(42).is_err(), "no producer writes 42");
    }

    #[test]
    fn queue_rejects_a_skipped_value() {
        let mut c = QueueConsumer::new(1);
        for seq in [0, 1, 3] {
            c.observe(queue_value(0, seq)).unwrap();
        }
        let err = queue_conserved(&[4], &[c]).unwrap_err();
        assert!(err.contains("enqueued 4 values, 3 came back"), "{err}");
    }

    #[test]
    fn queue_rejects_a_duplicated_value() {
        let (mut a, mut b) = (QueueConsumer::new(1), QueueConsumer::new(1));
        a.observe(queue_value(0, 0)).unwrap();
        b.observe(queue_value(0, 0)).unwrap();
        b.observe(queue_value(0, 1)).unwrap();
        assert!(queue_conserved(&[2], &[a, b]).is_err());
    }

    #[test]
    fn list_model_mismatch_is_rejected() {
        assert!(same_set("list", &[3, 1], [1, 3].into_iter()).is_ok());
        let err = same_set("list", &[1, 3], [1, 2, 3].into_iter()).unwrap_err();
        assert!(err.contains("missing [2]"), "{err}");
        assert!(same_set("list", &[1, 2, 4], [1, 2].into_iter()).is_err());
    }
}
