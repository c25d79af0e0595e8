//! Splice plans and the sample-accurate renderer.
//!
//! This is the mechanism behind the paper's Fig. 1/Fig. 4: the client
//! plays a single continuous output stream assembled from the live
//! service, recommended clips, and time-shifted live audio. A
//! [`SplicePlan`] is the *validated* description of that assembly — a
//! contiguous, gap-free sequence of segments on the output sample axis —
//! and [`SplicePlan::render`] produces the actual samples with short
//! fade-out/fade-in envelopes at every seam so the replacement is
//! "seamless" in the verifiable sense: no hard amplitude discontinuity.

use crate::source::{AudioSource, ClipSource, LiveSource, SourceId};
use serde::{Deserialize, Serialize};

/// What plays during one segment of the output stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SegmentSource {
    /// The live service in real time: output position = stream position.
    Live(LiveSource),
    /// The live service delayed by `delay_samples` (time-shifted replay
    /// from the client's [`crate::TimeShiftBuffer`]).
    LiveShifted {
        /// The underlying live service.
        source: LiveSource,
        /// How far behind real time the replay runs, in samples.
        delay_samples: u64,
    },
    /// A stored clip, starting `offset` samples into the clip.
    Clip {
        /// The clip audio.
        source: ClipSource,
        /// Clip-local sample at which playback starts.
        offset: u64,
    },
    /// Digital silence (tuning gaps, underflow masking).
    Silence,
}

impl SegmentSource {
    /// Identity of the underlying source.
    #[must_use]
    pub fn id(&self) -> SourceId {
        match self {
            SegmentSource::Live(s) => s.id(),
            SegmentSource::LiveShifted { source, .. } => source.id(),
            SegmentSource::Clip { source, .. } => source.id(),
            SegmentSource::Silence => SourceId(0),
        }
    }

    /// The sample this source contributes at output position `pos`
    /// within a segment starting at `seg_start`.
    #[inline]
    fn sample(&self, seg_start: u64, pos: u64) -> f32 {
        match self {
            SegmentSource::Live(s) => s.sample(pos),
            SegmentSource::LiveShifted { source, delay_samples } => {
                source.sample(pos.saturating_sub(*delay_samples))
            }
            SegmentSource::Clip { source, offset } => source.sample(offset + (pos - seg_start)),
            SegmentSource::Silence => 0.0,
        }
    }
}

/// One contiguous span of the output stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedSegment {
    /// First output sample of the segment (absolute).
    pub start: u64,
    /// One past the last output sample (absolute).
    pub end: u64,
    /// What plays.
    pub source: SegmentSource,
}

impl PlannedSegment {
    /// Segment length in samples.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for zero-length segments (invalid in a plan).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Why a splice plan is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpliceError {
    /// A plan must contain at least one segment.
    EmptyPlan,
    /// Segment `index` has zero or negative length.
    ZeroLengthSegment {
        /// Offending segment index.
        index: usize,
    },
    /// Segment `index` does not start where segment `index - 1` ends —
    /// the output would have a gap or an overlap.
    NotContiguous {
        /// Offending segment index.
        index: usize,
    },
    /// Segment `index` reads past the end of its clip: the plan would
    /// play silence that was never scheduled.
    ClipOverrun {
        /// Offending segment index.
        index: usize,
    },
    /// The seam fade is longer than half of segment `index`.
    FadeTooLong {
        /// Offending segment index.
        index: usize,
    },
}

impl std::fmt::Display for SpliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpliceError::EmptyPlan => write!(f, "splice plan has no segments"),
            SpliceError::ZeroLengthSegment { index } => {
                write!(f, "segment {index} has zero length")
            }
            SpliceError::NotContiguous { index } => {
                write!(f, "segment {index} does not start at the previous segment's end")
            }
            SpliceError::ClipOverrun { index } => {
                write!(f, "segment {index} reads past the end of its clip")
            }
            SpliceError::FadeTooLong { index } => {
                write!(f, "seam fade exceeds half of segment {index}")
            }
        }
    }
}

impl std::error::Error for SpliceError {}

/// Statistics from a render, used by tests and the E1 bench.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RenderStats {
    /// Samples produced.
    pub samples: u64,
    /// Seams crossed in the rendered range.
    pub seams: u32,
    /// Largest absolute sample-to-sample jump observed at any seam
    /// (within one fade length of a boundary).
    pub max_seam_jump: f32,
}

/// A validated, renderable assembly of the output stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplicePlan {
    segments: Vec<PlannedSegment>,
    fade_samples: u32,
}

impl SplicePlan {
    /// Builds and validates a plan. `fade_samples` is the length of the
    /// fade-out and fade-in applied on each side of every interior seam
    /// (and at the plan's outer edges nothing is faded).
    ///
    /// # Errors
    /// Any [`SpliceError`] describing the first defect found.
    pub fn new(segments: Vec<PlannedSegment>, fade_samples: u32) -> Result<Self, SpliceError> {
        if segments.is_empty() {
            return Err(SpliceError::EmptyPlan);
        }
        for (i, seg) in segments.iter().enumerate() {
            if seg.is_empty() {
                return Err(SpliceError::ZeroLengthSegment { index: i });
            }
            if i > 0 && seg.start != segments[i - 1].end {
                return Err(SpliceError::NotContiguous { index: i });
            }
            if let SegmentSource::Clip { source, offset } = seg.source {
                if offset + seg.len() > source.len_samples() {
                    return Err(SpliceError::ClipOverrun { index: i });
                }
            }
            if u64::from(fade_samples) * 2 > seg.len() {
                return Err(SpliceError::FadeTooLong { index: i });
            }
        }
        Ok(SplicePlan { segments, fade_samples })
    }

    /// The validated segments.
    #[must_use]
    pub fn segments(&self) -> &[PlannedSegment] {
        &self.segments
    }

    /// Seam fade length, samples.
    #[must_use]
    pub fn fade_samples(&self) -> u32 {
        self.fade_samples
    }

    /// First output sample covered by the plan.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.segments[0].start
    }

    /// One past the last output sample covered.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.segments[self.segments.len() - 1].end
    }

    /// Index of the segment containing output position `pos`, if the
    /// plan covers it.
    #[must_use]
    pub fn segment_at(&self, pos: u64) -> Option<usize> {
        if pos < self.start() || pos >= self.end() {
            return None;
        }
        let idx = self.segments.partition_point(|s| s.end <= pos);
        (idx < self.segments.len()).then_some(idx)
    }

    /// The fade envelope at `pos` within segment `idx`: 1.0 in the
    /// segment body, ramping to ~0 at interior seams.
    fn envelope(&self, idx: usize, pos: u64) -> f32 {
        let fade = u64::from(self.fade_samples);
        if fade == 0 {
            return 1.0;
        }
        let seg = &self.segments[idx];
        let mut env = 1.0f32;
        // Fade-in after an interior seam at seg.start.
        if idx > 0 {
            let into = pos - seg.start;
            if into < fade {
                env = env.min((into + 1) as f32 / (fade + 1) as f32);
            }
        }
        // Fade-out before an interior seam at seg.end.
        if idx + 1 < self.segments.len() {
            let left = seg.end - 1 - pos;
            if left < fade {
                env = env.min((left + 1) as f32 / (fade + 1) as f32);
            }
        }
        env
    }

    /// The output sample at `pos`. Positions outside the plan render as
    /// silence.
    #[must_use]
    pub fn sample_at(&self, pos: u64) -> f32 {
        let Some(idx) = self.segment_at(pos) else { return 0.0 };
        let seg = &self.segments[idx];
        seg.source.sample(seg.start, pos) * self.envelope(idx, pos)
    }

    /// Renders output samples `[from, to)` into a vector and reports
    /// seam statistics.
    ///
    /// # Panics
    /// Panics if `from > to`.
    #[must_use]
    pub fn render(&self, from: u64, to: u64) -> (Vec<f32>, RenderStats) {
        assert!(from <= to, "render range is inverted");
        let mut out = vec![0.0f32; (to - from) as usize];
        let stats = self.render_into(from, &mut out);
        (out, stats)
    }

    /// Renders `out.len()` samples starting at `from` into `out`.
    pub fn render_into(&self, from: u64, out: &mut [f32]) -> RenderStats {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.sample_at(from + i as u64);
        }
        let to = from + out.len() as u64;
        // Seam statistics.
        let fade = u64::from(self.fade_samples).max(1);
        let mut seams = 0u32;
        let mut max_jump = 0.0f32;
        for w in self.segments.windows(2) {
            let seam = w[1].start;
            if seam <= from || seam >= to {
                continue;
            }
            seams += 1;
            let lo = seam.saturating_sub(fade).max(from + 1);
            let hi = (seam + fade).min(to);
            for p in lo..hi {
                let jump = (self.sample_at(p) - self.sample_at(p - 1)).abs();
                max_jump = max_jump.max(jump);
            }
        }
        RenderStats { samples: out.len() as u64, seams, max_seam_jump: max_jump }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live(idx: u32) -> SegmentSource {
        SegmentSource::Live(LiveSource::new(idx))
    }

    fn clip(num: u64, len: u64) -> SegmentSource {
        SegmentSource::Clip { source: ClipSource::new(num, len), offset: 0 }
    }

    /// Live 0..1000, clip 1000..3000, live 3000..4000 — the Fig. 1
    /// replacement in miniature.
    fn replacement_plan(fade: u32) -> SplicePlan {
        SplicePlan::new(
            vec![
                PlannedSegment { start: 0, end: 1_000, source: live(1) },
                PlannedSegment { start: 1_000, end: 3_000, source: clip(7, 2_000) },
                PlannedSegment { start: 3_000, end: 4_000, source: live(1) },
            ],
            fade,
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_gaps_and_overlaps() {
        let gap = SplicePlan::new(
            vec![
                PlannedSegment { start: 0, end: 100, source: live(0) },
                PlannedSegment { start: 150, end: 300, source: live(0) },
            ],
            0,
        );
        assert_eq!(gap.unwrap_err(), SpliceError::NotContiguous { index: 1 });
        let overlap = SplicePlan::new(
            vec![
                PlannedSegment { start: 0, end: 100, source: live(0) },
                PlannedSegment { start: 90, end: 300, source: live(0) },
            ],
            0,
        );
        assert_eq!(overlap.unwrap_err(), SpliceError::NotContiguous { index: 1 });
    }

    #[test]
    fn validation_rejects_degenerate_plans() {
        assert_eq!(SplicePlan::new(vec![], 0).unwrap_err(), SpliceError::EmptyPlan);
        let zero = SplicePlan::new(vec![PlannedSegment { start: 5, end: 5, source: live(0) }], 0);
        assert_eq!(zero.unwrap_err(), SpliceError::ZeroLengthSegment { index: 0 });
    }

    #[test]
    fn validation_rejects_clip_overrun() {
        let plan = SplicePlan::new(
            vec![PlannedSegment { start: 0, end: 2_001, source: clip(1, 2_000) }],
            0,
        );
        assert_eq!(plan.unwrap_err(), SpliceError::ClipOverrun { index: 0 });
        // Offset pushes the read window past the end.
        let plan = SplicePlan::new(
            vec![PlannedSegment {
                start: 0,
                end: 1_000,
                source: SegmentSource::Clip { source: ClipSource::new(1, 1_500), offset: 600 },
            }],
            0,
        );
        assert_eq!(plan.unwrap_err(), SpliceError::ClipOverrun { index: 0 });
    }

    #[test]
    fn validation_rejects_overlong_fade() {
        let plan =
            SplicePlan::new(vec![PlannedSegment { start: 0, end: 100, source: live(0) }], 51);
        assert_eq!(plan.unwrap_err(), SpliceError::FadeTooLong { index: 0 });
    }

    #[test]
    fn segment_at_is_exact() {
        let plan = replacement_plan(0);
        assert_eq!(plan.segment_at(999), Some(0));
        assert_eq!(plan.segment_at(1_000), Some(1));
        assert_eq!(plan.segment_at(2_999), Some(1));
        assert_eq!(plan.segment_at(3_000), Some(2));
        assert_eq!(plan.segment_at(4_000), None);
    }

    #[test]
    fn body_samples_match_sources_exactly() {
        let plan = replacement_plan(50);
        let live_src = LiveSource::new(1);
        let clip_src = ClipSource::new(7, 2_000);
        // Deep inside each segment the envelope is 1.0: samples are
        // bit-exact, which is the provenance property DESIGN.md promises.
        assert_eq!(plan.sample_at(500), live_src.sample(500));
        assert_eq!(plan.sample_at(2_000), clip_src.sample(1_000));
        assert_eq!(plan.sample_at(3_500), live_src.sample(3_500));
    }

    #[test]
    fn live_resumes_in_real_time_after_clip() {
        // After the replacement the listener is back on *live* radio:
        // position 3_500 of the output plays position 3_500 of the
        // stream, not 1_500 (the Fig. 1 semantics: replacement, not pause).
        let plan = replacement_plan(0);
        let live_src = LiveSource::new(1);
        assert_eq!(plan.sample_at(3_500), live_src.sample(3_500));
        assert_ne!(plan.sample_at(3_500), live_src.sample(1_500));
    }

    #[test]
    fn time_shifted_segment_replays_the_past() {
        let shifted =
            SegmentSource::LiveShifted { source: LiveSource::new(2), delay_samples: 1_200 };
        let plan =
            SplicePlan::new(vec![PlannedSegment { start: 2_000, end: 3_000, source: shifted }], 0)
                .unwrap();
        let live_src = LiveSource::new(2);
        assert_eq!(plan.sample_at(2_500), live_src.sample(1_300));
    }

    #[test]
    fn fades_bound_seam_discontinuity() {
        let faded = replacement_plan(100);
        let hard = replacement_plan(0);
        let (_, stats_faded) = faded.render(0, 4_000);
        let (_, stats_hard) = hard.render(0, 4_000);
        assert_eq!(stats_faded.seams, 2);
        assert_eq!(stats_hard.seams, 2);
        // Uncorrelated noise jumps by up to ~2.0 at a hard cut; the fade
        // must make seams markedly smoother.
        assert!(
            stats_faded.max_seam_jump < stats_hard.max_seam_jump,
            "faded {} vs hard {}",
            stats_faded.max_seam_jump,
            stats_hard.max_seam_jump
        );
        assert!(stats_faded.max_seam_jump < 0.2, "got {}", stats_faded.max_seam_jump);
    }

    #[test]
    fn envelope_reaches_silence_at_seam_edges() {
        let plan = replacement_plan(100);
        // The last faded sample before the seam and the first after it
        // are near-silent.
        assert!(plan.sample_at(999).abs() < 0.02);
        assert!(plan.sample_at(1_000).abs() < 0.02);
    }

    #[test]
    fn render_outside_plan_is_silence() {
        let plan = replacement_plan(0);
        assert_eq!(plan.sample_at(4_000), 0.0);
        let (out, stats) = plan.render(3_990, 4_010);
        assert_eq!(stats.samples, 20);
        assert!(out[10..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn render_partial_range_counts_contained_seams_only() {
        let plan = replacement_plan(10);
        let (_, stats) = plan.render(0, 1_500);
        assert_eq!(stats.seams, 1);
        let (_, stats) = plan.render(1_100, 2_900);
        assert_eq!(stats.seams, 0);
    }

    #[test]
    fn segment_at_boundaries() {
        let plan = replacement_plan(0);
        assert_eq!(plan.segment_at(0), Some(0));
        assert_eq!(plan.segment_at(999), Some(0));
        assert_eq!(plan.segment_at(1_000), Some(1));
        assert_eq!(plan.segment_at(3_999), Some(2));
        assert_eq!(plan.segment_at(4_000), None);
    }

    #[test]
    fn clip_offset_plays_mid_clip() {
        let src = ClipSource::new(11, 5_000);
        let plan = SplicePlan::new(
            vec![PlannedSegment {
                start: 100,
                end: 600,
                source: SegmentSource::Clip { source: src, offset: 2_000 },
            }],
            0,
        )
        .unwrap();
        assert_eq!(plan.sample_at(100), src.sample(2_000));
        assert_eq!(plan.sample_at(599), src.sample(2_499));
    }
}
