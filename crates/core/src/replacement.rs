//! The replacement planner: schedule-synchronized buffering and
//! time-shift.
//!
//! This module turns a recommendation ("play these clips starting at
//! 11:00") into a sample-accurate [`SplicePlan`] plus a human-readable
//! [`ReplacementTimeline`] — the Fig. 4 artifact. The semantics follow
//! §2.1.2: while clips play, the live service keeps being recorded; when
//! the clips end, the displaced live programme resumes *time-shifted* by
//! the total clip duration ("the program began 20 minutes ago, but the
//! app can still smoothly present it"), and the EPG annotates which
//! programme the listener is hearing at every instant.

use pphcr_audio::source::LiveSource;
use pphcr_audio::splice::{PlannedSegment, SegmentSource};
use pphcr_audio::{ClipId, ClipStore, SampleClock, SpliceError, SplicePlan};
use pphcr_catalog::{ProgrammeId, Schedule, ServiceIndex};
use pphcr_geo::time::TimeInterval;
use pphcr_geo::{TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};

/// What the listener hears during one timeline entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TimelineEntry {
    /// The live stream in real time.
    Live,
    /// A recommended clip.
    Clip(ClipId),
    /// The live stream delayed by `delay` (time-shifted).
    Shifted {
        /// How far behind real time.
        delay: TimeSpan,
    },
}

/// One annotated span of the listener's personalized timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSpan {
    /// What plays.
    pub entry: TimelineEntry,
    /// When it plays (listener wall clock).
    pub interval: TimeInterval,
    /// The EPG programme audible during this span (for live/shifted
    /// spans; clips carry `None`).
    pub programme: Option<ProgrammeId>,
}

/// The full annotated timeline of one replacement.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ReplacementTimeline {
    /// Spans in playback order.
    pub spans: Vec<TimelineSpan>,
    /// Accumulated time-shift after the clips.
    pub displacement: TimeSpan,
    /// Time-shift buffer capacity the client needs for this plan.
    pub required_buffer: TimeSpan,
}

/// Why a replacement could not be planned.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplacementError {
    /// A clip is missing from the audio store.
    UnknownClip(ClipId),
    /// The insertion instant precedes the listening start.
    InsertBeforeStart,
    /// The horizon does not leave room for the clips.
    HorizonTooShort,
    /// The underlying splice plan was rejected.
    Splice(SpliceError),
}

impl std::fmt::Display for ReplacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplacementError::UnknownClip(id) => write!(f, "clip {id} not in the audio store"),
            ReplacementError::InsertBeforeStart => {
                write!(f, "insertion instant precedes listening start")
            }
            ReplacementError::HorizonTooShort => write!(f, "clips do not fit before the horizon"),
            ReplacementError::Splice(e) => write!(f, "splice plan rejected: {e}"),
        }
    }
}

impl std::error::Error for ReplacementError {}

/// The planner.
#[derive(Debug, Clone, Copy)]
pub struct ReplacementPlanner {
    /// Sample clock for splice plans.
    pub clock: SampleClock,
    /// Seam fade length in samples.
    pub fade_samples: u32,
}

impl Default for ReplacementPlanner {
    fn default() -> Self {
        // 20 ms fades at broadcast rate.
        ReplacementPlanner { clock: SampleClock::BROADCAST, fade_samples: 960 }
    }
}

impl ReplacementPlanner {
    /// Plans a replacement: live until `insert_at`, then `clips` in
    /// order, then the live service time-shifted by the clips' total
    /// duration until `horizon`.
    ///
    /// # Errors
    /// [`ReplacementError`] when instants are inconsistent, a clip is
    /// unknown, or the splice plan fails validation.
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        &self,
        service: ServiceIndex,
        store: &ClipStore,
        epg: &Schedule,
        listen_start: TimePoint,
        insert_at: TimePoint,
        clips: &[ClipId],
        horizon: TimePoint,
    ) -> Result<(SplicePlan, ReplacementTimeline), ReplacementError> {
        if insert_at < listen_start {
            return Err(ReplacementError::InsertBeforeStart);
        }
        let live = LiveSource::new(service.0);
        let mut segments: Vec<PlannedSegment> = Vec::new();
        let mut spans: Vec<TimelineSpan> = Vec::new();
        // 1. Live lead-in.
        if insert_at > listen_start {
            segments.push(PlannedSegment {
                start: self.clock.sample_at(listen_start),
                end: self.clock.sample_at(insert_at),
                source: SegmentSource::Live(live),
            });
            self.annotate_live(epg, service, listen_start, insert_at, TimeSpan::ZERO, &mut spans);
        }
        // 2. Clips.
        let mut cursor = insert_at;
        for &clip_id in clips {
            let (Some(src), Some(meta)) = (store.source(clip_id, self.clock), store.get(clip_id))
            else {
                return Err(ReplacementError::UnknownClip(clip_id));
            };
            let end = cursor.advance(meta.duration);
            segments.push(PlannedSegment {
                start: self.clock.sample_at(cursor),
                end: self.clock.sample_at(end),
                source: SegmentSource::Clip { source: src, offset: 0 },
            });
            spans.push(TimelineSpan {
                entry: TimelineEntry::Clip(clip_id),
                interval: TimeInterval::new(cursor, end),
                programme: None,
            });
            cursor = end;
        }
        let displacement = cursor.since(insert_at);
        if cursor > horizon {
            return Err(ReplacementError::HorizonTooShort);
        }
        // 3. Time-shifted resume.
        if horizon > cursor {
            segments.push(PlannedSegment {
                start: self.clock.sample_at(cursor),
                end: self.clock.sample_at(horizon),
                source: SegmentSource::LiveShifted {
                    source: live,
                    delay_samples: self.clock.samples_in(displacement),
                },
            });
            self.annotate_live(epg, service, cursor, horizon, displacement, &mut spans);
        }
        let plan =
            SplicePlan::new(segments, self.fade_samples).map_err(ReplacementError::Splice)?;
        let timeline = ReplacementTimeline {
            spans,
            displacement,
            // The buffer must hold the displaced audio for the whole
            // shifted tail.
            required_buffer: displacement,
        };
        Ok((plan, timeline))
    }

    /// Splits `[from, to)` at EPG programme boundaries of the *stream*
    /// timeline (i.e. shifted by `delay`) and appends annotated spans.
    fn annotate_live(
        &self,
        epg: &Schedule,
        service: ServiceIndex,
        from: TimePoint,
        to: TimePoint,
        delay: TimeSpan,
        spans: &mut Vec<TimelineSpan>,
    ) {
        let entry =
            if delay.is_zero() { TimelineEntry::Live } else { TimelineEntry::Shifted { delay } };
        let mut cursor = from;
        while cursor < to {
            let stream_t = cursor.rewind(delay);
            let programme = epg.programme_at(service, stream_t);
            // The span ends at the next programme boundary (mapped back
            // to listener time) or `to`, whichever is first.
            let next_boundary = match programme {
                Some(p) => p.interval.end.advance(delay),
                None => epg
                    .next_programme(service, stream_t)
                    .map_or(to, |p| p.interval.start.advance(delay)),
            };
            let end = next_boundary.min(to).max(cursor.advance(TimeSpan::seconds(1)));
            spans.push(TimelineSpan {
                entry,
                interval: TimeInterval::new(cursor, end.min(to)),
                programme: programme.map(|p| p.id),
            });
            cursor = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pphcr_audio::source::{AudioSource, ClipSource};
    use pphcr_catalog::{CategoryId, Programme};

    /// The Fig. 4 EPG: three programmes on service 0.
    fn fig4_epg() -> Schedule {
        let mut epg = Schedule::new();
        let mk = |id: u64, s: TimePoint, e: TimePoint| Programme {
            id: ProgrammeId(id),
            service: ServiceIndex(0),
            title: format!("Program {id}"),
            category: CategoryId::new(19),
            interval: TimeInterval::new(s, e),
        };
        epg.add(mk(1, TimePoint::at(0, 10, 42, 30), TimePoint::at(0, 10, 55, 0))).unwrap();
        epg.add(mk(2, TimePoint::at(0, 10, 55, 0), TimePoint::at(0, 11, 10, 0))).unwrap();
        epg.add(mk(3, TimePoint::at(0, 11, 10, 0), TimePoint::at(0, 11, 20, 0))).unwrap();
        epg
    }

    fn store_with(clips: &[(u64, u64)]) -> ClipStore {
        let mut s = ClipStore::new();
        for &(id, minutes) in clips {
            s.insert_simple(ClipId(id), TimeSpan::minutes(minutes));
        }
        s
    }

    fn planner() -> ReplacementPlanner {
        // Small sample rate keeps test renders cheap.
        ReplacementPlanner { clock: SampleClock::new(100), fade_samples: 50 }
    }

    /// The full Lilly scenario: live from 10:42:30, a 15-minute clip at
    /// 11:00, then the displaced live stream until 11:30.
    #[test]
    fn lilly_fig4_timeline() {
        let p = planner();
        let (plan, timeline) = p
            .plan(
                ServiceIndex(0),
                &store_with(&[(100, 15)]),
                &fig4_epg(),
                TimePoint::at(0, 10, 42, 30),
                TimePoint::at(0, 11, 0, 0),
                &[ClipId(100)],
                TimePoint::at(0, 11, 30, 0),
            )
            .unwrap();
        assert_eq!(timeline.displacement, TimeSpan::minutes(15));
        assert_eq!(timeline.required_buffer, TimeSpan::minutes(15));
        // Spans: live P1, live P2 (cut at 11:00), clip, shifted P2, shifted P3.
        let entries: Vec<&TimelineSpan> = timeline.spans.iter().collect();
        assert!(matches!(entries[0].entry, TimelineEntry::Live));
        assert_eq!(entries[0].programme, Some(ProgrammeId(1)));
        assert_eq!(entries[1].programme, Some(ProgrammeId(2)));
        assert!(matches!(entries[2].entry, TimelineEntry::Clip(ClipId(100))));
        assert_eq!(
            entries[2].interval,
            TimeInterval::new(TimePoint::at(0, 11, 0, 0), TimePoint::at(0, 11, 15, 0))
        );
        // After the clip: P2 resumes time-shifted where it was cut.
        let shifted = entries[3];
        assert!(
            matches!(shifted.entry, TimelineEntry::Shifted { delay } if delay == TimeSpan::minutes(15))
        );
        assert_eq!(shifted.programme, Some(ProgrammeId(2)));
        assert_eq!(shifted.interval.start, TimePoint::at(0, 11, 15, 0));
        // P2's live end 11:10 maps to listener 11:25 — Fig. 4's bottom row.
        assert_eq!(shifted.interval.end, TimePoint::at(0, 11, 25, 0));
        let p3 = entries[4];
        assert_eq!(p3.programme, Some(ProgrammeId(3)));
        assert_eq!(p3.interval.start, TimePoint::at(0, 11, 25, 0));
        // The splice plan covers the whole session contiguously.
        assert_eq!(plan.start(), p.clock.sample_at(TimePoint::at(0, 10, 42, 30)));
        assert_eq!(plan.end(), p.clock.sample_at(TimePoint::at(0, 11, 30, 0)));
    }

    #[test]
    fn shifted_audio_is_sample_exact() {
        let p = planner();
        let (plan, _) = p
            .plan(
                ServiceIndex(0),
                &store_with(&[(100, 15)]),
                &fig4_epg(),
                TimePoint::at(0, 10, 42, 30),
                TimePoint::at(0, 11, 0, 0),
                &[ClipId(100)],
                TimePoint::at(0, 11, 30, 0),
            )
            .unwrap();
        let live = LiveSource::new(0);
        // At listener 11:20 (deep in the shifted tail) we hear stream
        // time 11:05 — the audio Lilly missed while the clip played.
        let listener_pos = p.clock.sample_at(TimePoint::at(0, 11, 20, 0));
        let stream_pos = p.clock.sample_at(TimePoint::at(0, 11, 5, 0));
        assert_eq!(plan.sample_at(listener_pos), live.sample(stream_pos));
        // Mid-clip, we hear the clip.
        let clip_src = ClipSource::new(100, p.clock.samples_in(TimeSpan::minutes(15)));
        let mid_clip = p.clock.sample_at(TimePoint::at(0, 11, 7, 0));
        let clip_local = mid_clip - p.clock.sample_at(TimePoint::at(0, 11, 0, 0));
        assert_eq!(plan.sample_at(mid_clip), clip_src.sample(clip_local));
    }

    #[test]
    fn multiple_clips_accumulate_displacement() {
        let p = planner();
        let (_, timeline) = p
            .plan(
                ServiceIndex(0),
                &store_with(&[(1, 5), (2, 10)]),
                &fig4_epg(),
                TimePoint::at(0, 10, 50, 0),
                TimePoint::at(0, 10, 55, 0),
                &[ClipId(1), ClipId(2)],
                TimePoint::at(0, 11, 30, 0),
            )
            .unwrap();
        assert_eq!(timeline.displacement, TimeSpan::minutes(15));
        let clip_spans: Vec<&TimelineSpan> =
            timeline.spans.iter().filter(|s| matches!(s.entry, TimelineEntry::Clip(_))).collect();
        assert_eq!(clip_spans.len(), 2);
        assert_eq!(clip_spans[0].interval.end, clip_spans[1].interval.start);
    }

    #[test]
    fn no_clips_is_pure_live() {
        let p = planner();
        let (plan, timeline) = p
            .plan(
                ServiceIndex(0),
                &ClipStore::new(),
                &fig4_epg(),
                TimePoint::at(0, 10, 45, 0),
                TimePoint::at(0, 10, 45, 0),
                &[],
                TimePoint::at(0, 11, 0, 0),
            )
            .unwrap();
        assert_eq!(timeline.displacement, TimeSpan::ZERO);
        assert!(timeline.spans.iter().all(|s| matches!(s.entry, TimelineEntry::Live)));
        assert_eq!(plan.segments().len(), 1);
    }

    #[test]
    fn unknown_clip_rejected() {
        let p = planner();
        let err = p
            .plan(
                ServiceIndex(0),
                &ClipStore::new(),
                &fig4_epg(),
                TimePoint::at(0, 10, 45, 0),
                TimePoint::at(0, 10, 50, 0),
                &[ClipId(77)],
                TimePoint::at(0, 11, 0, 0),
            )
            .unwrap_err();
        assert_eq!(err, ReplacementError::UnknownClip(ClipId(77)));
    }

    #[test]
    fn unknown_clip_mid_plan_is_typed_not_a_panic() {
        // Regression for the `.expect("source implies record")` this
        // replaced: a missing clip *after* a valid one must surface as
        // the typed error from inside the planning loop.
        let p = planner();
        let err = p
            .plan(
                ServiceIndex(0),
                &store_with(&[(1, 5)]),
                &fig4_epg(),
                TimePoint::at(0, 10, 45, 0),
                TimePoint::at(0, 10, 50, 0),
                &[ClipId(1), ClipId(77)],
                TimePoint::at(0, 11, 0, 0),
            )
            .unwrap_err();
        assert_eq!(err, ReplacementError::UnknownClip(ClipId(77)));
    }

    #[test]
    fn inconsistent_instants_rejected() {
        let p = planner();
        let err = p
            .plan(
                ServiceIndex(0),
                &store_with(&[(1, 5)]),
                &fig4_epg(),
                TimePoint::at(0, 11, 0, 0),
                TimePoint::at(0, 10, 0, 0),
                &[ClipId(1)],
                TimePoint::at(0, 11, 30, 0),
            )
            .unwrap_err();
        assert_eq!(err, ReplacementError::InsertBeforeStart);
        let err = p
            .plan(
                ServiceIndex(0),
                &store_with(&[(1, 40)]),
                &fig4_epg(),
                TimePoint::at(0, 10, 50, 0),
                TimePoint::at(0, 10, 55, 0),
                &[ClipId(1)],
                TimePoint::at(0, 11, 0, 0),
            )
            .unwrap_err();
        assert_eq!(err, ReplacementError::HorizonTooShort);
    }

    #[test]
    fn timeline_is_contiguous() {
        let p = planner();
        let (_, timeline) = p
            .plan(
                ServiceIndex(0),
                &store_with(&[(1, 7)]),
                &fig4_epg(),
                TimePoint::at(0, 10, 42, 30),
                TimePoint::at(0, 10, 58, 0),
                &[ClipId(1)],
                TimePoint::at(0, 11, 20, 0),
            )
            .unwrap();
        for w in timeline.spans.windows(2) {
            assert_eq!(w[0].interval.end, w[1].interval.start, "{timeline:#?}");
        }
        assert_eq!(timeline.spans.first().unwrap().interval.start, TimePoint::at(0, 10, 42, 30));
        assert_eq!(timeline.spans.last().unwrap().interval.end, TimePoint::at(0, 11, 20, 0));
    }
}
