//! Streaming-engine configuration.

use slim_core::SlimConfig;
use slim_lsh::LshConfig;

/// Configuration of the incremental LSH candidate filter in streaming
/// mode.
///
/// Unlike the batch filter — whose signature length follows from the
/// total time span — a stream has no known span, so the signature is a
/// **ring of `spans` query spans** of `base.step_windows` leaf windows
/// each, covering the most recent `spans · step_windows` windows.
/// Banding is derived once from that fixed signature size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamLshConfig {
    /// Threshold / step / level / bucket parameters shared with the
    /// batch filter.
    pub base: LshConfig,
    /// Number of query spans in the ring signature.
    pub spans: usize,
}

impl Default for StreamLshConfig {
    fn default() -> Self {
        Self {
            base: LshConfig::default(),
            spans: 16,
        }
    }
}

/// The largest accepted [`StreamConfig::num_shards`] and
/// [`StreamConfig::num_workers`]: the pool spawns a thread per worker,
/// and per-shard and per-worker state is sized by the request.
pub const MAX_PARALLELISM: usize = 1024;

/// Configuration of a [`crate::StreamEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The linkage parameters (shared with the batch pipeline).
    pub slim: SlimConfig,
    /// Sliding-window capacity in temporal windows: only the most recent
    /// `W` windows of history are retained; older windows expire and
    /// their evidence is unwound. `None` = unbounded (full history) —
    /// the mode whose final output is identical to batch linkage.
    pub window_capacity: Option<u32>,
    /// Re-run matching + thresholding automatically after this many
    /// ingested events (a *refresh tick*). `0` disables automatic ticks;
    /// call [`crate::StreamEngine::refresh`] manually.
    pub refresh_every: usize,
    /// Engine state shards: per-entity state (histories, buffers, LSH
    /// rings) and per-pair state (contribution caches, adjacency) are
    /// partitioned by entity hash across this many
    /// `EngineShard`s. Shards are not threads: the
    /// worker pool ([`StreamConfig::num_workers`]) runs their work.
    /// `0` = one shard per available core, at most [`MAX_PARALLELISM`].
    /// The engine's observable behaviour (links, stats, finalized
    /// output) is bit-identical for every value.
    pub num_shards: usize,
    /// Workers in the persistent execution pool, the engine thread
    /// included — **decoupled from [`StreamConfig::num_shards`]**:
    /// shards partition *state*, workers execute *chunks* of shard
    /// work. Each worker claims its own contiguous block of a phase's
    /// chunks, then takes chunks from the back of other workers'
    /// blocks, so a hot shard's queue is consumed by every free
    /// worker. `0` = one worker per available core, at most
    /// [`MAX_PARALLELISM`]. Output is bit-identical for every value.
    pub num_workers: usize,
    /// Optional incremental LSH candidate filter. `None` = brute-force
    /// candidates (every active cross-dataset pair).
    pub lsh: Option<StreamLshConfig>,
    /// Record phase-span, worker-busy, and event-latency histograms
    /// (`true` by default). Telemetry is strictly observational: links,
    /// update streams, stats, and finalized output are bit-identical
    /// whether this is on or off — disabling it only skips the clock
    /// reads and histogram updates on the hot paths.
    pub telemetry: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            slim: SlimConfig::default(),
            window_capacity: None,
            refresh_every: 10_000,
            num_shards: 0,
            num_workers: 0,
            lsh: None,
            telemetry: true,
        }
    }
}

impl StreamConfig {
    /// Validates parameter ranges and cross-parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.slim.validate()?;
        let (shards, workers) = (self.num_shards, self.num_workers);
        if shards.max(workers) > MAX_PARALLELISM {
            return Err(format!(
                "num_shards ({shards}) and num_workers ({workers}) must be at most {MAX_PARALLELISM}"
            ));
        }
        if let Some(w) = self.window_capacity {
            if w == 0 {
                return Err("window_capacity must be at least 1 window".into());
            }
        }
        if let Some(lsh) = &self.lsh {
            if lsh.spans == 0 {
                return Err("lsh.spans must be positive".into());
            }
            lsh.base.validate()?;
            if let Some(w) = self.window_capacity {
                let coverage = lsh.spans as u64 * lsh.base.step_windows as u64;
                if coverage < w as u64 {
                    return Err(format!(
                        "lsh ring covers {coverage} windows but window_capacity is {w}; \
                         raise lsh.spans or lsh.base.step_windows"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The effective shard count (resolving `0` to the core count).
    pub fn effective_shards(&self) -> usize {
        or_core_count(self.num_shards)
    }

    /// The effective pool worker count (resolving `0` to the core
    /// count).
    pub fn effective_workers(&self) -> usize {
        or_core_count(self.num_workers)
    }
}

/// `n`, or for `0` the available core count capped at
/// [`MAX_PARALLELISM`].
fn or_core_count(n: usize) -> usize {
    if n > 0 {
        return n;
    }
    std::thread::available_parallelism()
        .map_or(1, |cores| cores.get())
        .min(MAX_PARALLELISM)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(StreamConfig::default().validate().is_ok());
        assert!(StreamConfig::default().effective_shards() >= 1);
        assert!(StreamConfig::default().effective_workers() >= 1);
    }

    #[test]
    fn explicit_worker_count_wins_over_core_count() {
        let cfg = StreamConfig {
            num_workers: 3,
            ..StreamConfig::default()
        };
        assert_eq!(cfg.effective_workers(), 3);
        assert!(cfg.validate().is_ok());
    }

    /// Checked on the config only: an engine with this many workers
    /// would start that many threads.
    #[test]
    fn rejects_shard_and_worker_counts_above_the_limit() {
        for (shards, workers) in [
            (MAX_PARALLELISM + 1, 1),
            (1, MAX_PARALLELISM + 1),
            (5000, 0),
        ] {
            let cfg = StreamConfig {
                num_shards: shards,
                num_workers: workers,
                ..StreamConfig::default()
            };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("must be at most 1024"), "{err}");
        }
        let at_limit = StreamConfig {
            num_shards: MAX_PARALLELISM,
            num_workers: MAX_PARALLELISM,
            ..StreamConfig::default()
        };
        assert!(at_limit.validate().is_ok());
    }

    #[test]
    fn rejects_zero_window_capacity() {
        let cfg = StreamConfig {
            window_capacity: Some(0),
            ..StreamConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_lsh_ring_smaller_than_window() {
        let cfg = StreamConfig {
            window_capacity: Some(10_000),
            lsh: Some(StreamLshConfig {
                spans: 2,
                base: LshConfig {
                    step_windows: 4,
                    ..LshConfig::default()
                },
            }),
            ..StreamConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("ring covers"), "{err}");
    }

    /// A level the cell grid does not have would panic in a pool worker.
    #[test]
    fn rejects_an_lsh_level_beyond_the_grid() {
        let cfg = StreamConfig {
            lsh: Some(StreamLshConfig {
                base: LshConfig {
                    spatial_level: 31,
                    ..LshConfig::default()
                },
                ..StreamLshConfig::default()
            }),
            ..StreamConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("spatial_level"), "{err}");
    }

    #[test]
    fn rejects_invalid_slim_config() {
        let cfg = StreamConfig {
            slim: SlimConfig {
                b: 7.0,
                ..SlimConfig::default()
            },
            ..StreamConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
