//! The deterministic property runner.
//!
//! [`check`] samples a generator for a configured number of cases and
//! applies the property to each. Case seeds are derived deterministically
//! from the property name and case index, so a run is reproducible without
//! any environment setup; on failure the runner greedily shrinks the
//! counterexample and panics with the exact case seed. Re-running with
//! `SIMTEST_SEED=<that seed>` regenerates the identical case (and, because
//! shrinking is a pure function of the failing value, the identical
//! shrink).
//!
//! Environment knobs:
//!
//! * `SIMTEST_SEED=<u64>` — run exactly one case per property, seeded with
//!   the given value. Combine with `cargo test <property_name>` to replay
//!   a single reported failure.
//! * `SIMTEST_CASES=<n>` — override the per-property case count.

use crate::gen::Gen;
use simcore::SimRng;
use std::fmt::Debug;

/// Runner configuration. `Default` reads the environment overrides.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cases to run per property (default 96).
    pub cases: u32,
    /// Upper bound on shrink candidates evaluated after a failure.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Self {
        let cases = std::env::var("SIMTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(96);
        Config {
            cases,
            max_shrink_iters: 4096,
        }
    }
}

impl Config {
    /// A configuration with an explicit case count (environment
    /// `SIMTEST_CASES` still wins, so a CI override reaches every
    /// property).
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// SplitMix64 step — used to derive independent case seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of case `i` of property `name`. Exposed for tests.
pub fn case_seed(name: &str, i: u32) -> u64 {
    mix(simcore::digest::fnv1a(name.as_bytes()) ^ mix(i as u64))
}

fn forced_seed() -> Option<u64> {
    std::env::var("SIMTEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Checks `prop` against [`Config::default`]`.cases` samples of `gen`.
///
/// `name` should be the enclosing `#[test]` function's name so the
/// reproduction instructions printed on failure are copy-pasteable.
///
/// # Panics
/// Panics (failing the test) on the first property violation, after
/// greedy shrinking, with the case seed in the message.
pub fn check<T, P>(name: &str, gen: &Gen<T>, prop: P)
where
    T: Debug + Clone + 'static,
    P: FnMut(&T) -> Result<(), String>,
{
    check_with(&Config::default(), name, gen, prop)
}

/// [`check`] with an explicit configuration.
pub fn check_with<T, P>(cfg: &Config, name: &str, gen: &Gen<T>, mut prop: P)
where
    T: Debug + Clone + 'static,
    P: FnMut(&T) -> Result<(), String>,
{
    if let Some(seed) = forced_seed() {
        run_case(cfg, name, gen, &mut prop, seed, 0);
        return;
    }
    for i in 0..cfg.cases {
        run_case(cfg, name, gen, &mut prop, case_seed(name, i), i);
    }
}

fn run_case<T, P>(cfg: &Config, name: &str, gen: &Gen<T>, prop: &mut P, seed: u64, case_index: u32)
where
    T: Debug + Clone + 'static,
    P: FnMut(&T) -> Result<(), String>,
{
    let mut rng = SimRng::new(seed);
    let value = gen.sample(&mut rng);
    let Err(original_err) = prop(&value) else {
        return;
    };
    let (shrunk, shrunk_err, steps) = shrink(cfg, gen, prop, value.clone(), original_err.clone());
    panic!(
        "\n[simtest] property '{name}' failed (case {case_index})\n\
         [simtest] reproduce with: SIMTEST_SEED={seed} cargo test {name}\n\
         [simtest] original counterexample: {value:?}\n\
         [simtest]   error: {original_err}\n\
         [simtest] shrunk counterexample ({steps} steps): {shrunk:?}\n\
         [simtest]   error: {shrunk_err}\n"
    );
}

/// Greedy shrink: repeatedly replace the counterexample with the first
/// candidate that still fails, until no candidate fails (or the budget
/// runs out).
fn shrink<T, P>(
    cfg: &Config,
    gen: &Gen<T>,
    prop: &mut P,
    mut value: T,
    mut err: String,
) -> (T, String, u32)
where
    T: Debug + Clone + 'static,
    P: FnMut(&T) -> Result<(), String>,
{
    let mut steps = 0u32;
    let mut budget = cfg.max_shrink_iters;
    'outer: while budget > 0 {
        for cand in gen.shrinks(&value) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(e) = prop(&cand) {
                value = cand;
                err = e;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (value, err, steps)
}

/// Asserts a condition inside a property closure, returning a formatted
/// `Err` (instead of panicking) so the runner can shrink the case.
#[macro_export]
macro_rules! st_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

/// Asserts equality inside a property closure; the `Err` carries both
/// values.
#[macro_export]
macro_rules! st_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($arg:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($arg)+),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::vec_of;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut ran = 0;
        check_with(
            &Config::with_cases(10),
            "passing_property_runs_all_cases",
            &Gen::u64_in(0, 100),
            |_| {
                ran += 1;
                Ok(())
            },
        );
        // With SIMTEST_SEED set globally a single case runs; otherwise 10.
        assert!(ran == 10 || ran == 1);
    }

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        assert_eq!(case_seed("p", 3), case_seed("p", 3));
        assert_ne!(case_seed("p", 3), case_seed("p", 4));
        assert_ne!(case_seed("p", 3), case_seed("q", 3));
    }

    #[test]
    fn failure_panics_with_seed_and_shrinks_to_minimum() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_with(
                &Config::with_cases(50),
                "failure_demo",
                &Gen::u64_in(0, 1000),
                |&v| {
                    st_assert!(v < 500, "too big: {v}");
                    Ok(())
                },
            );
        }));
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("SIMTEST_SEED="), "{msg}");
        assert!(msg.contains("failure_demo"), "{msg}");
        // Greedy shrink must land on the boundary counterexample.
        assert!(msg.contains("shrunk counterexample"), "{msg}");
        assert!(
            msg.contains(": 500"),
            "expected minimal counterexample 500: {msg}"
        );
    }

    #[test]
    fn reported_seed_reproduces_the_exact_case() {
        // Find a failing case the way the runner does, then confirm that
        // seeding a fresh rng with the reported seed regenerates it.
        let gen = vec_of(Gen::u64_in(0, 9), 1, 8);
        let name = "repro_demo";
        let mut failing: Option<(u64, Vec<u64>)> = None;
        for i in 0..200 {
            let seed = case_seed(name, i);
            let v = gen.sample(&mut SimRng::new(seed));
            if v.iter().sum::<u64>() > 30 {
                failing = Some((seed, v));
                break;
            }
        }
        let (seed, original) = failing.expect("some case fails");
        let replay = gen.sample(&mut SimRng::new(seed));
        assert_eq!(replay, original);
    }

    #[test]
    fn shrink_respects_budget() {
        let cfg = Config {
            cases: 1,
            max_shrink_iters: 3,
        };
        let gen = Gen::u64_in(0, u32::MAX as u64);
        let (v, _err, steps) = shrink(
            &cfg,
            &gen,
            &mut |_| Err("always".into()),
            1_000_000,
            "always".into(),
        );
        assert!(steps <= 3);
        assert!(v <= 1_000_000);
    }
}
