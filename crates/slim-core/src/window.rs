//! Temporal windowing.
//!
//! SLIM splits time into consecutive fixed-width windows (paper §2.3);
//! window indices are the temporal half of a *time-location bin*. Both
//! datasets being linked must use the same scheme, otherwise "same
//! temporal window" is meaningless — the constructor of the linkage
//! pipeline enforces that by sharing one `WindowScheme`.

use serde::{Deserialize, Serialize};

use crate::record::Timestamp;

/// Index of a temporal window within a [`WindowScheme`].
pub type WindowIdx = u32;

/// A partition of the time axis into consecutive windows of equal width,
/// starting at `origin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowScheme {
    origin: i64,
    width_secs: i64,
}

impl WindowScheme {
    /// The highest index [`WindowScheme::window_of`] returns — one
    /// below `WindowIdx::MAX`, so "the window after" (`w + 1`: domain
    /// sizes, the frontier's exclusive end) is always representable.
    pub const LAST_WINDOW: WindowIdx = WindowIdx::MAX - 1;

    /// Creates a scheme with the given origin timestamp and window width.
    ///
    /// # Panics
    /// Panics if `width_secs` is not positive.
    pub fn new(origin: Timestamp, width_secs: i64) -> Self {
        assert!(width_secs > 0, "window width must be positive");
        Self {
            origin: origin.secs(),
            width_secs,
        }
    }

    /// Window width in seconds.
    #[inline]
    pub fn width_secs(&self) -> i64 {
        self.width_secs
    }

    /// The window containing `t`. Timestamps before the origin map to
    /// window 0 (callers are expected to pick `origin <= min(t)`);
    /// timestamps too far past it saturate at [`WindowScheme::LAST_WINDOW`]
    /// instead of truncating into an arbitrary — possibly long-expired
    /// — window, and no `t` overflows the subtraction.
    #[inline]
    pub fn window_of(&self, t: Timestamp) -> WindowIdx {
        // Saturating, so a difference beyond i64 keeps its sign: far
        // before the origin clamps to 0 below, far after counts as
        // `i64::MAX` seconds.
        let delta = t.secs().saturating_sub(self.origin);
        if delta < 0 {
            return 0;
        }
        WindowIdx::try_from(delta / self.width_secs)
            .map_or(Self::LAST_WINDOW, |w| w.min(Self::LAST_WINDOW))
    }

    /// Inclusive start time of window `w`.
    #[inline]
    pub fn window_start(&self, w: WindowIdx) -> Timestamp {
        Timestamp(self.origin + w as i64 * self.width_secs)
    }

    /// Number of windows needed to cover timestamps in `[origin, end]`.
    pub fn num_windows(&self, end: Timestamp) -> u32 {
        self.window_of(end) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_of_basics() {
        let s = WindowScheme::new(Timestamp(1000), 60);
        assert_eq!(s.window_of(Timestamp(1000)), 0);
        assert_eq!(s.window_of(Timestamp(1059)), 0);
        assert_eq!(s.window_of(Timestamp(1060)), 1);
        assert_eq!(s.window_of(Timestamp(1000 + 60 * 99)), 99);
    }

    #[test]
    fn before_origin_clamps_to_zero() {
        let s = WindowScheme::new(Timestamp(1000), 60);
        assert_eq!(s.window_of(Timestamp(0)), 0);
    }

    /// Extreme timestamps against either sign of origin: no overflow
    /// (debug panics on it, release wraps), far past saturates instead
    /// of truncating to a low window, far before clamps to 0.
    #[test]
    fn extreme_timestamps_saturate_instead_of_wrapping() {
        for origin in [i64::MIN, -1_000_000, 0, 1000, i64::MAX] {
            for width in [1, 900, i64::MAX] {
                let s = WindowScheme::new(Timestamp(origin), width);
                assert_eq!(s.window_of(Timestamp(origin)), 0);
                let (past, future) = (
                    s.window_of(Timestamp(i64::MIN)),
                    s.window_of(Timestamp(i64::MAX)),
                );
                assert_eq!(past, 0, "origin {origin}, width {width}");
                // A span beyond i64 counts as i64::MAX seconds.
                let span = (i64::MAX as i128 - origin as i128).min(i64::MAX as i128);
                let exact = span / width as i128;
                let expect = exact.min(WindowScheme::LAST_WINDOW as i128) as WindowIdx;
                assert_eq!(future, expect, "origin {origin}, width {width}");
            }
        }
        // One past u32's range used to truncate to window 0.
        let s = WindowScheme::new(Timestamp(0), 1);
        assert_eq!(s.window_of(Timestamp(1 << 32)), WindowScheme::LAST_WINDOW);
        assert_eq!(
            s.window_of(Timestamp(u32::MAX as i64)),
            WindowScheme::LAST_WINDOW
        );
        assert_eq!(s.window_of(Timestamp(u32::MAX as i64 - 2)), u32::MAX - 2);
    }

    #[test]
    fn window_start_inverts_window_of() {
        let s = WindowScheme::new(Timestamp(500), 900);
        for w in [0u32, 1, 7, 1000] {
            let start = s.window_start(w);
            assert_eq!(s.window_of(start), w);
            assert_eq!(s.window_of(Timestamp(start.secs() + 899)), w);
        }
    }

    #[test]
    fn num_windows_covers_span() {
        let s = WindowScheme::new(Timestamp(0), 900);
        assert_eq!(s.num_windows(Timestamp(0)), 1);
        assert_eq!(s.num_windows(Timestamp(899)), 1);
        assert_eq!(s.num_windows(Timestamp(900)), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = WindowScheme::new(Timestamp(0), 0);
    }
}
