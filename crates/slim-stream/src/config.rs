//! Streaming-engine configuration.

use slim_core::SlimConfig;
use slim_lsh::LshConfig;

use crate::steal::PoolMode;

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
    /// [`crate::shard::EngineShard`]s, and ingest/refresh phases run
    /// one worker thread per shard. `0` = one shard per available
    /// core. The engine's observable behaviour (links, stats,
    /// finalized output) is bit-identical for every value.
    pub num_shards: usize,
    /// Workers in the persistent execution pool — **decoupled from
    /// [`StreamConfig::num_shards`]**: shards partition *state*, workers
    /// execute *chunks* of shard work distributed over work-stealing
    /// deques, so a hot shard's queue is consumed by every free worker
    /// instead of stalling its home thread. `0` = one worker per
    /// available core. Output is bit-identical for every value.
    pub num_workers: usize,
    /// How the pool places and schedules chunks. The default
    /// ([`PoolMode::Stealing`]) is the production mode;
    /// [`PoolMode::Scripted`] runs a seeded pseudo-random schedule
    /// (property tests). Results are bit-identical across both.
    pub pool_mode: PoolMode,
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
            pool_mode: PoolMode::default(),
            lsh: None,
            telemetry: true,
        }
    }
}

impl StreamConfig {
    /// Validates parameter ranges and cross-parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.slim.validate()?;
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
        if self.num_shards > 0 {
            self.num_shards
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The effective pool worker count (resolving `0` to the core
    /// count).
    pub fn effective_workers(&self) -> usize {
        if self.num_workers > 0 {
            self.num_workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(StreamConfig::default().validate().is_ok());
        assert!(StreamConfig::default().effective_shards() >= 1);
        assert!(StreamConfig::default().effective_workers() >= 1);
        assert_eq!(StreamConfig::default().pool_mode, PoolMode::Stealing);
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
