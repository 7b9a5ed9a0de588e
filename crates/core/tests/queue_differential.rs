//! Differential property test: the O(1) class-bitmap `PrioritizedQueue`
//! against the seed's `VecDeque` linear-scan model, under long random
//! interleavings of every queue operation and both disciplines.
//!
//! The model is the executable spec: arrival-ordered `Vec` where `pop`
//! under `Priority` scans for the highest class and breaks ties by
//! earliest arrival (exactly the seed's `max_by_key((prio, Reverse(seq)))`
//! scan), `remove_where`/`reprioritize` hit the first arrival-order
//! match, `peek` names the element `pop` would return, and `max_waiting`
//! names the earliest arrival of the highest priority.

use revmon_core::{PrioritizedQueue, Priority, QueueDiscipline};

/// Seed-equivalent model queue.
struct Model {
    items: Vec<(u64, Priority, u64)>, // (item, priority, arrival seq)
    next_seq: u64,
    discipline: QueueDiscipline,
}

impl Model {
    fn new(discipline: QueueDiscipline) -> Self {
        Model { items: Vec::new(), next_seq: 0, discipline }
    }

    fn push(&mut self, item: u64, priority: Priority) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push((item, priority, seq));
    }

    /// Index `pop` takes: front for FIFO; highest class, earliest
    /// arrival within it, for Priority.
    fn pop_index(&self) -> Option<usize> {
        if self.items.is_empty() {
            return None;
        }
        match self.discipline {
            QueueDiscipline::Fifo => Some(0),
            QueueDiscipline::Priority => self
                .items
                .iter()
                .enumerate()
                .max_by_key(|(_, &(_, p, s))| (p, std::cmp::Reverse(s)))
                .map(|(i, _)| i),
        }
    }

    fn pop(&mut self) -> Option<u64> {
        self.pop_index().map(|i| self.items.remove(i).0)
    }

    fn peek(&self) -> Option<(u64, Priority)> {
        self.pop_index().map(|i| (self.items[i].0, self.items[i].1))
    }

    /// Earliest arrival of the highest priority, whatever the discipline.
    fn max_waiting(&self) -> Option<(u64, Priority)> {
        let top = self.items.iter().map(|&(_, p, _)| p).max()?;
        self.items.iter().find(|&&(_, p, _)| p == top).map(|&(v, p, _)| (v, p))
    }

    fn remove_where(&mut self, mut pred: impl FnMut(&u64) -> bool) -> bool {
        if let Some(i) = self.items.iter().position(|(v, _, _)| pred(v)) {
            self.items.remove(i);
            true
        } else {
            false
        }
    }

    fn reprioritize(&mut self, mut pred: impl FnMut(&u64) -> bool, priority: Priority) -> bool {
        if let Some(i) = self.items.iter().position(|(v, _, _)| pred(v)) {
            self.items[i].1 = priority;
            true
        } else {
            false
        }
    }
}

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn drive(discipline: QueueDiscipline, seed: u64, ops: usize) {
    let mut q = PrioritizedQueue::new(discipline);
    let mut m = Model::new(discipline);
    let mut rng = Lcg(seed);
    let mut next_item = 0u64;
    for step in 0..ops {
        match rng.next() % 10 {
            // Bias toward pushes so the queue carries real population.
            0..=3 => {
                let p = Priority::new((rng.next() % 10 + 1) as u8);
                q.push(next_item, p);
                m.push(next_item, p);
                next_item += 1;
            }
            4..=5 => {
                assert_eq!(q.pop(), m.pop(), "pop diverged at step {step}");
            }
            6 => {
                let target = rng.next() % next_item.max(1);
                assert_eq!(
                    q.remove_where(|&v| v == target),
                    m.remove_where(|&v| v == target),
                    "remove_where diverged at step {step}"
                );
            }
            7 => {
                let target = rng.next() % next_item.max(1);
                let p = Priority::new((rng.next() % 10 + 1) as u8);
                assert_eq!(
                    q.reprioritize(|&v| v == target, p),
                    m.reprioritize(|&v| v == target, p),
                    "reprioritize diverged at step {step}"
                );
            }
            8 => {
                // peek names the element pop would return, not just the
                // highest priority.
                assert_eq!(
                    q.peek().map(|(&v, p)| (v, p)),
                    m.peek(),
                    "peek diverged at step {step}"
                );
            }
            _ => {
                assert_eq!(
                    q.max_waiting().map(|(&v, p)| (v, p)),
                    m.max_waiting(),
                    "max_waiting diverged at step {step}"
                );
            }
        }
        // Cross-checks every step: length, arrival order with each
        // entry's queued-at priority (what the VM's state fingerprint
        // hashes), and the per-class/bitmap invariants.
        assert_eq!(q.len(), m.items.len(), "len diverged at step {step}");
        assert!(
            q.iter_entries().map(|(&v, p)| (v, p)).eq(m.items.iter().map(|&(v, p, _)| (v, p))),
            "arrival order diverged at step {step}"
        );
        assert!(q.is_well_formed(), "queue invariants broken at step {step}");
    }
    // Drain fully: termination order must match exactly.
    while let Some(v) = m.pop() {
        assert_eq!(q.pop(), Some(v), "drain order diverged");
    }
    assert!(q.is_empty());
}

#[test]
fn priority_discipline_matches_the_seed_model() {
    for seed in 0..8 {
        drive(QueueDiscipline::Priority, 0x9E3779B97F4A7C15 ^ seed, 4_000);
    }
}

#[test]
fn fifo_discipline_matches_the_seed_model() {
    for seed in 0..8 {
        drive(QueueDiscipline::Fifo, 0xD1B54A32D192ED03 ^ seed, 4_000);
    }
}
