//! The rescore pass's per-worker memo of resolved window runs.
//!
//! A dense tick visits the same (side, entity, window) run once per
//! partner of the entity: a dirty entity's new windows are rescored
//! against every partner, and each partner's run in those windows
//! against every dirty entity it pairs with. Resolving a run — each
//! bin's cell geometry and idf ([`SimilarityScorer::resolve_run`]) —
//! reads only the run and the df statistics, and neither changes while
//! a tick's jobs are scored, so each worker thread resolves such a run
//! once per scoring pass and hands the kernel the resolved copy on every
//! later visit. Only dirty pairs' windows go through it: a fresh pair's
//! walk meets runs that seldom recur within the tick. The memo is
//! derived state: stamped with the pass that filled it and emptied when
//! another pass starts, bounded by [`RUN_MEMO_CAP`], and never
//! checkpointed.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};

use slim_core::arena::Run;
use slim_core::fasthash::FastMap;
use slim_core::similarity::{ResolvedRuns, RunSpan, SimilarityScorer};
use slim_core::{EntityId, LinkageStats, WindowIdx};

use crate::adjacency::PairKey;
use crate::event::Side;

/// Bins, and runs, one worker's memo holds before it starts over. A
/// `stream_cab` tick resolves a few thousand; the cap only bounds a
/// pathological one.
const RUN_MEMO_CAP: usize = 1 << 16;

/// The last scoring-pass stamp handed out. Stamps are unique per
/// process, so no pass — of this engine or another on the same thread —
/// reads runs another pass resolved.
static PASSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEMO: RefCell<RunMemo> = RefCell::new(RunMemo::default());
}

/// A fresh scoring-pass stamp.
pub(crate) fn next_pass() -> u64 {
    PASSES.fetch_add(1, Ordering::Relaxed) + 1
}

/// One thread's resolved runs of one scoring pass.
#[derive(Default)]
pub(crate) struct RunMemo {
    pass: u64,
    /// Per side: where each (entity, window) run sits in `runs`.
    spans: [FastMap<(EntityId, WindowIdx), RunSpan>; 2],
    runs: ResolvedRuns,
    /// Debug builds re-resolve every hit here.
    check: ResolvedRuns,
}

impl RunMemo {
    /// Lends the calling thread's memo to `f` for scoring pass `pass`,
    /// emptied first if it holds another pass's runs.
    pub(crate) fn with<R>(pass: u64, f: impl FnOnce(&mut RunMemo) -> R) -> R {
        MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.pass != pass {
                memo.clear();
                memo.pass = pass;
            }
            f(&mut memo)
        })
    }

    fn clear(&mut self) {
        self.spans.iter_mut().for_each(FastMap::clear);
        self.runs.clear();
    }

    /// [`SimilarityScorer::window_contribution`] of window `w` to
    /// `pair`. Each side's run there — empty or not — is asked of `ru`
    /// or `rv` and resolved only the first time the pass meets it.
    pub(crate) fn window_contribution<'r>(
        &mut self,
        scorer: &SimilarityScorer<'_>,
        (u, v): PairKey,
        w: WindowIdx,
        ru: impl FnOnce() -> Run<'r>,
        rv: impl FnOnce() -> Run<'r>,
        stats: &mut LinkageStats,
    ) -> f64 {
        // Both spans must outlive the window, so start over only
        // between windows.
        if self
            .runs
            .bins()
            .max(self.spans[0].len() + self.spans[1].len())
            >= RUN_MEMO_CAP
        {
            self.clear();
        }
        let su = self.span(scorer, Side::Left, u, w, ru);
        let sv = self.span(scorer, Side::Right, v, w, rv);
        scorer.resolved_contribution(self.runs.get(su), self.runs.get(sv), stats)
    }

    fn span<'r>(
        &mut self,
        scorer: &SimilarityScorer<'_>,
        side: Side,
        entity: EntityId,
        w: WindowIdx,
        run: impl FnOnce() -> Run<'r>,
    ) -> RunSpan {
        match self.spans[side.idx()].entry((entity, w)) {
            Entry::Vacant(slot) => {
                *slot.insert(scorer.resolve_run(side.idx(), w, run(), &mut self.runs))
            }
            Entry::Occupied(hit) => {
                let span = *hit.get();
                if cfg!(debug_assertions) {
                    // Every debug engine run checks every reuse: the
                    // memoized run is what resolving it now gives.
                    self.check.clear();
                    let again = scorer.resolve_run(side.idx(), w, run(), &mut self.check);
                    assert_eq!(
                        self.runs.get(span),
                        self.check.get(again),
                        "memoized run of {side:?} {entity} in window {w}"
                    );
                }
                span
            }
        }
    }
}
