//! The house invariant, asserted once: the streamed answer is a function
//! of the live events, not of how they arrived. A proptest samples
//! [`Variation`]s — shards × workers, `ingest_batch` chunking, a direct
//! feed or a scripted source or a staged fan-in of connections that join,
//! leave and die, a kill and a recovery from a sound, torn or bit-flipped
//! checkpoint, telemetry and its snapshot cadence, concurrent epoch
//! readers, the watermark tick policy — over sampled [`Case`]s, and
//! [`Case::check`] holds each run to the one-shard, one-worker,
//! whole-stream reference: links, updates, deterministic stats, every
//! published epoch and `finalize()`. A [`RecomputeOracle`] checks every
//! direct run's windowed state after every tick. The summed coverage
//! must show every axis exercised.
//!
//! Each suite beside this one — `shard_`, `arena_`, `ingest_`,
//! `multi_connection_`, `snapshot_`, `telemetry_` and
//! `stream_equivalence`, and `checkpoint_recovery` — holds one axis of
//! the same driver over a fixed grid, with the corner cases a sample
//! would rarely draw.

use std::sync::Mutex;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use slim::stream::testing::{Case, OracleCoverage};

/// Cases the matrix samples, and variations drawn per case.
const CASES: u32 = 24;
const VARIATIONS: usize = 4;

/// The coverage of each case run so far; the last one asserts the sum.
static COVERED: Mutex<Vec<OracleCoverage>> = Mutex::new(Vec::new());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn the_answer_is_a_function_of_the_live_events(seed in 0u64..u64::MAX) {
        let case = Case::sample(seed);
        let cover = case
            .check(&case.variations(seed, VARIATIONS))
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
        let mut covered = COVERED.lock().expect("coverage lock");
        covered.push(cover);
        if covered.len() == CASES as usize {
            let mut sum = OracleCoverage::default();
            covered.iter().for_each(|c| sum.add(c));
            sum.assert_exercised(&[]);
        }
    }
}
