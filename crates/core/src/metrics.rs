//! Execution counters and small statistics helpers.
//!
//! [`Metrics`] is filled by both runtimes; the benchmark harness reads it
//! to report the paper's figures. The statistics helpers implement the
//! mean and the 90 % confidence interval the paper reports ("we show 90 %
//! confidence intervals in our results", §4.1).

/// Define a counter struct — and, when asked, its atomic twin — from a
/// single field list, so the struct, `merge`, `FIELD_NAMES`, the by-name
/// accessors and the twin's `snapshot` can never drift apart: a field
/// added to the list is automatically summed by `merge`, visited by
/// `for_each_field`, exported by name and copied by `snapshot`.
///
/// ```
/// revmon_core::define_counters! {
///     /// A point-in-time copy.
///     pub struct Snapshot {
///         /// Things that happened.
///         events,
///         /// Things that did not.
///         misses,
///     }
///     /// The live counters, bumped with relaxed atomics.
///     pub atomic Live;
/// }
///
/// let live = Live::default();
/// live.events.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// let mut total = live.snapshot();
/// total.merge(&Snapshot::uniform(1));
/// assert_eq!((total.events, total.misses), (3, 1));
/// assert_eq!(Snapshot::FIELD_NAMES, ["events", "misses"]);
/// ```
#[macro_export]
macro_rules! define_counters {
    (
        $(#[$meta:meta])* $vis:vis struct $name:ident {
            $( $(#[$doc:meta])* $field:ident ),+ $(,)?
        }
        $( $(#[$ameta:meta])* $avis:vis atomic $atomic:ident; )?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$doc])* pub $field: u64, )+
        }

        impl $name {
            /// Every counter's name, in declaration order.
            pub const FIELD_NAMES: &'static [&'static str] = &[
                $( stringify!($field), )+
            ];

            /// Fresh, zeroed counters.
            pub fn new() -> Self {
                Self::default()
            }

            /// Component-wise sum, for aggregating across threads or
            /// monitors. Generated from the field list, so it cannot
            /// drop a field.
            pub fn merge(&mut self, other: &$name) {
                $( self.$field += other.$field; )+
            }

            /// Visit every counter as `(name, value)`, in declaration
            /// order.
            pub fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f(stringify!($field), self.$field); )+
            }

            /// Value of the counter called `name`, if any.
            pub fn field(&self, name: &str) -> Option<u64> {
                match name {
                    $( stringify!($field) => Some(self.$field), )+
                    _ => None,
                }
            }

            /// Every counter set to `v` (test helper for exhaustiveness
            /// checks).
            pub fn uniform(v: u64) -> Self {
                $name { $( $field: v, )+ }
            }
        }

        $crate::define_counters! {
            @atomic $name { $( $field )+ } $( $(#[$ameta])* $avis atomic $atomic; )?
        }
    };
    (@atomic $name:ident { $( $field:ident )+ }) => {};
    (
        @atomic $name:ident { $( $field:ident )+ }
        $(#[$ameta:meta])* $avis:vis atomic $atomic:ident;
    ) => {
        $(#[$ameta])*
        #[derive(Debug, Default)]
        $avis struct $atomic {
            $( pub $field: ::std::sync::atomic::AtomicU64, )+
        }

        impl $atomic {
            /// A relaxed point-in-time copy of every counter.
            $avis fn snapshot(&self) -> $name {
                $name {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }
    };
}

define_counters! {
    /// Counters describing one run.
    pub struct Metrics {
        /// Bytecode instructions executed (VM) / data operations (locks).
        instructions,
        /// Monitor acquisitions that succeeded immediately.
        monitor_acquires,
        /// Monitor acquisitions that found the monitor held.
        contended_acquires,
        /// Context switches between green threads.
        context_switches,
        /// Logged stores (write-barrier slow path executions). The VM
        /// counts every one, also a repeat store it folds into the undo
        /// entry its section layer holds for the word; `revmon-locks`
        /// counts first writes (one per cell per section).
        log_entries,
        /// Write-barrier fast-path executions (every store on modified VM).
        barrier_fast_paths,
        /// Write-barrier slow-path executions (in-section stores that were
        /// logged and stamped their word).
        barrier_slow_paths,
        /// Stores that skipped the barrier thanks to static elision.
        barriers_elided,
        /// Revocations requested (holder flagged by a higher-priority thread).
        revocations_requested,
        /// Rollbacks actually performed.
        rollbacks,
        /// Logged stores undone by rollbacks, in `log_entries`' unit.
        entries_rolled_back,
        /// Synchronized-section executions that committed.
        sections_committed,
        /// Priority-inversion events detected.
        inversions_detected,
        /// Inversions left unresolved because the monitor was non-revocable.
        inversions_unresolved,
        /// Monitors marked non-revocable by the JMM-consistency guard.
        monitors_marked_nonrevocable,
        /// Deadlock cycles detected.
        deadlocks_detected,
        /// Deadlocks broken by revoking a victim.
        deadlocks_broken,
        /// Priority boosts applied (priority-inheritance baseline).
        priority_boosts,
        /// Revocations denied by the governor's retry budget.
        governor_throttles,
        /// Fresh fallback-to-blocking windows opened by the governor.
        policy_fallbacks,
        /// Critical sections submitted to a monitor's combiner (delegation).
        delegations_submitted,
        /// Delegated sections executed to completion by a combiner.
        delegations_completed,
    }
}

/// Arithmetic mean of `xs`. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator). 0.0 for n < 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Half-width of the 90 % confidence interval around the mean, using
/// Student-t critical values for small n (the paper runs 5 iterations).
pub fn ci90_half_width(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    // Two-sided 90% t critical values for df = n-1.
    const T90: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    let df = n - 1;
    let t = if df <= T90.len() { T90[df - 1] } else { 1.645 };
    t * std_dev(xs) / (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_all_fields() {
        let mut a = Metrics { instructions: 1, rollbacks: 2, ..Metrics::new() };
        let b = Metrics { instructions: 10, rollbacks: 20, log_entries: 5, ..Metrics::new() };
        a.merge(&b);
        assert_eq!(a.instructions, 11);
        assert_eq!(a.rollbacks, 22);
        assert_eq!(a.log_entries, 5);
    }

    #[test]
    fn merge_cannot_drop_a_field() {
        // Every field of the merge result must change when merging a
        // uniform delta — a field silently skipped by `merge` would stay
        // at its old value and fail here.
        let mut a = Metrics::uniform(1);
        a.merge(&Metrics::uniform(10));
        a.for_each_field(|name, v| assert_eq!(v, 11, "field {name} dropped by merge"));
    }

    #[test]
    fn field_names_cover_every_field() {
        let m = Metrics::uniform(7);
        assert!(!Metrics::FIELD_NAMES.is_empty());
        let mut visited = 0;
        m.for_each_field(|name, v| {
            assert_eq!(m.field(name), Some(v));
            visited += 1;
        });
        assert_eq!(visited, Metrics::FIELD_NAMES.len());
        assert_eq!(m.field("no_such_counter"), None);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_and_std_dev_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn ci90_zero_for_constant_samples() {
        assert_eq!(ci90_half_width(&[3.0, 3.0, 3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn ci90_five_samples_uses_t_2_132() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let expected = 2.132 * std_dev(&xs) / (5.0f64).sqrt();
        assert!((ci90_half_width(&xs) - expected).abs() < 1e-12);
    }

    #[test]
    fn ci90_single_sample_is_zero() {
        assert_eq!(ci90_half_width(&[42.0]), 0.0);
    }
}
