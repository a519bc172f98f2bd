//! Case execution: a deterministic runner with rejection support and
//! upstream-style `*.proptest-regressions` seed persistence.

use std::path::{Path, PathBuf};

use crate::strategy::Strategy;

/// Runner configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases to run per property.
    pub cases: u32,
    /// Source file of the property (the [`crate::proptest!`] macro fills
    /// this with `file!()`). When set, the runner replays seeds from the
    /// sibling `<stem>.proptest-regressions` file before generating fresh
    /// cases, and appends the failing seed there when a case fails —
    /// mirroring upstream's failure persistence.
    pub source_file: Option<&'static str>,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            source_file: None,
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

/// Why a test case did not pass.
#[derive(Clone, Debug)]
pub enum TestCaseError {
    /// The case's preconditions (`prop_assume!`) did not hold; try another.
    Reject(String),
    /// A `prop_assert!` failed.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Deterministic case-generation RNG (SplitMix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded constructor; identical seeds generate identical case streams.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Executes a property over many generated cases.
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// Runner with the given config. A `PROPTEST_CASES` environment
    /// variable, when set to a number, replaces the configured case count,
    /// so one run can deepen every property at once.
    pub fn new(mut config: ProptestConfig) -> Self {
        if let Some(cases) = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            config.cases = cases;
        }
        TestRunner { config }
    }

    /// Run `test` on `config.cases` accepted cases drawn from `strategy`.
    /// Panics (failing the enclosing `#[test]`) on the first failure,
    /// printing the generated input since there is no shrinking.
    ///
    /// Every case is generated from its own 64-bit seed, so a failing
    /// case is identified by one `cc <seed>` token. When
    /// `config.source_file` is set, seeds stored in the sibling
    /// `<stem>.proptest-regressions` file are replayed **before** any
    /// fresh cases, and a fresh failure appends its seed there (check the
    /// file in so everyone replays it — same contract as upstream).
    pub fn run<S, F>(&mut self, strategy: &S, mut test: F)
    where
        S: Strategy,
        S::Value: std::fmt::Debug,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let regressions = self.config.source_file.map(regressions_path);

        // Replay phase: stored failure seeds first.
        if let Some(path) = &regressions {
            for seed in load_seeds(path) {
                let value = strategy.generate(&mut TestRng::from_seed(seed));
                let shown = format!("{value:?}");
                match test(value) {
                    Ok(()) | Err(TestCaseError::Reject(_)) => {}
                    Err(TestCaseError::Fail(msg)) => panic!(
                        "stored regression cc {seed:016x} (from {}) failed again: {msg}\n  \
                         input: {shown}",
                        path.display()
                    ),
                }
            }
        }

        // Fresh phase: deterministic per-attempt seeds, so failures
        // reproduce exactly on re-run even without the regressions file.
        let mut accepted = 0u32;
        let mut attempts = 0u64;
        let max_attempts = u64::from(self.config.cases).saturating_mul(64).max(4096);
        while accepted < self.config.cases {
            attempts += 1;
            assert!(
                attempts <= max_attempts,
                "gave up after {attempts} attempts: only {accepted}/{} cases \
                 passed the prop_assume! filters",
                self.config.cases
            );
            let seed = case_seed(attempts);
            let value = strategy.generate(&mut TestRng::from_seed(seed));
            let shown = format!("{value:?}");
            match test(value) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    let persisted = regressions
                        .as_deref()
                        .map(|path| persist_seed(path, seed, &shown))
                        .unwrap_or_default();
                    panic!(
                        "proptest case #{} failed: {}\n  input: {}\n  seed: cc {:016x}{}",
                        accepted + 1,
                        msg,
                        shown,
                        seed,
                        persisted,
                    )
                }
            }
        }
    }
}

/// Base for the deterministic per-attempt case seeds.
const BASE_SEED: u64 = 0xC0FF_EE00_5EED_1234;

/// The seed for fresh attempt `n` (SplitMix64 step keeps seeds well
/// spread even though attempt indices are sequential).
fn case_seed(attempt: u64) -> u64 {
    BASE_SEED ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `tests/foo.rs` → `tests/foo.proptest-regressions` (upstream's naming).
fn regressions_path(source_file: &str) -> PathBuf {
    Path::new(source_file).with_extension("proptest-regressions")
}

/// Parse stored seeds: lines of the form `cc <16-hex-digit seed> # ...`.
/// Comment lines and upstream-format 256-bit hashes (which this shim
/// cannot replay) are skipped silently.
fn load_seeds(path: &Path) -> Vec<u64> {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    contents
        .lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("cc ")?;
            let token = rest.split_whitespace().next()?;
            (token.len() == 16).then(|| u64::from_str_radix(token, 16).ok())?
        })
        .collect()
}

/// Append a failing seed to the regressions file (creating it with the
/// upstream header if absent), deduplicating against stored seeds.
/// Returns a human-readable note for the panic message; persistence
/// failures are reported in the note rather than masking the test panic.
fn persist_seed(path: &Path, seed: u64, input: &str) -> String {
    if load_seeds(path).contains(&seed) {
        return format!("\n  (already stored in {})", path.display());
    }
    if !path
        .parent()
        .is_none_or(|p| p.as_os_str().is_empty() || p.exists())
    {
        return format!("\n  (NOT persisted: {} has no parent dir)", path.display());
    }
    let mut contents = match std::fs::read_to_string(path) {
        Ok(existing) => existing,
        Err(_) => concat!(
            "# Seeds for failure cases proptest has generated in the past. It is\n",
            "# automatically read and these particular cases re-run before any\n",
            "# novel cases are generated.\n",
            "#\n",
            "# It is recommended to check this file in to source control so that\n",
            "# everyone who runs the test benefits from these saved cases.\n",
        )
        .to_string(),
    };
    if !contents.is_empty() && !contents.ends_with('\n') {
        contents.push('\n');
    }
    let shown: String = input.chars().take(160).collect();
    contents.push_str(&format!("cc {seed:016x} # failing input: {shown}\n"));
    match std::fs::write(path, contents) {
        Ok(()) => format!("\n  (seed persisted to {})", path.display()),
        Err(e) => format!("\n  (NOT persisted to {}: {e})", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0usize..=4, mut z in 1u64.., w in any::<u8>()) {
            z = z.wrapping_add(0); // exercise the `mut` binding form
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!(z >= 1);
            let _ = w;
        }

        #[test]
        fn assume_filters(v in 0u64..10, _pad in crate::collection::vec(0u64..5, 0..3)) {
            prop_assume!(v != 3);
            prop_assert_ne!(v, 3);
        }
    }

    #[test]
    fn oneof_and_map_cover_all_arms() {
        let strat = prop_oneof![
            4 => (0u64..10, 0u64..10).prop_map(|(a, b)| a + b),
            1 => Just(999u64),
        ];
        let mut rng = crate::test_runner::TestRng::from_seed(9);
        let mut saw_sum = false;
        let mut saw_just = false;
        for _ in 0..200 {
            match strat.generate(&mut rng) {
                999 => saw_just = true,
                v => {
                    assert!(v < 19);
                    saw_sum = true;
                }
            }
        }
        assert!(saw_sum && saw_just);
    }

    #[test]
    #[should_panic(expected = "proptest case #")]
    fn failures_panic_with_input() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(16));
        runner.run(&(0u64..100,), |(x,)| {
            prop_assert!(x < 2, "x was {}", x);
            Ok(())
        });
    }

    #[test]
    fn regressions_path_swaps_extension() {
        assert_eq!(
            crate::test_runner::regressions_path("tests/concurrent_equivalence.rs"),
            std::path::PathBuf::from("tests/concurrent_equivalence.proptest-regressions")
        );
    }

    #[test]
    fn load_seeds_parses_ours_and_skips_upstream_hashes() {
        let dir = std::env::temp_dir().join(format!("proptest-compat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("parse.proptest-regressions");
        std::fs::write(
            &path,
            "# header comment\n\
             cc 00000000deadbeef # a seed this shim wrote\n\
             cc 3f4a1d0a8d1b49f12f47a1b6a3bb9d72ba7c2ed0f0a2b98d35b8aa66d6fbc8d5 # upstream hash\n\
             not a cc line\n\
             cc nothexnothexnotx # unparseable\n",
        )
        .unwrap();
        assert_eq!(crate::test_runner::load_seeds(&path), vec![0xdead_beef]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failing_case_persists_seed_and_is_replayed_first() {
        let dir = std::env::temp_dir().join(format!("proptest-compat-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let source = dir.join("persisted_case.rs");
        let source_str: &'static str =
            Box::leak(source.to_str().unwrap().to_string().into_boxed_str());
        let regressions = crate::test_runner::regressions_path(source_str);
        let _ = std::fs::remove_file(&regressions);

        let config = ProptestConfig {
            cases: 32,
            source_file: Some(source_str),
        };

        // First run: some case fails; its seed must be written out.
        let failing_input = std::cell::RefCell::new(None::<u64>);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TestRunner::new(config.clone()).run(&(0u64..1000,), |(x,)| {
                if x >= 700 {
                    *failing_input.borrow_mut() = Some(x);
                    return Err(TestCaseError::fail("x too big"));
                }
                Ok(())
            });
        }));
        assert!(
            result.is_err(),
            "a case in [700, 1000) must eventually fail"
        );
        let failing_input = failing_input.borrow().expect("recorded before failing");
        let stored = std::fs::read_to_string(&regressions).expect("file written");
        assert!(stored.contains("cc "), "{stored}");
        assert!(stored.starts_with("# Seeds for failure cases"));
        let seeds = crate::test_runner::load_seeds(&regressions);
        assert_eq!(seeds.len(), 1);

        // Second run with a now-passing property: the stored seed is
        // replayed FIRST and regenerates the exact failing input.
        let replayed = std::cell::RefCell::new(Vec::new());
        TestRunner::new(config.clone()).run(&(0u64..1000,), |(x,)| {
            replayed.borrow_mut().push(x);
            Ok(())
        });
        assert_eq!(replayed.borrow()[0], failing_input);
        // Replays run on top of the configured fresh cases.
        assert_eq!(replayed.borrow().len() as u32, config.cases + 1);

        // Third run still failing: panic names the stored regression, and
        // the seed is not duplicated in the file.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TestRunner::new(config.clone()).run(&(0u64..1000,), |(x,)| {
                prop_assert!(x < 700, "x too big");
                Ok(())
            });
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("stored regression cc "), "{msg}");
        assert_eq!(crate::test_runner::load_seeds(&regressions).len(), 1);

        let _ = std::fs::remove_file(&regressions);
    }
}
