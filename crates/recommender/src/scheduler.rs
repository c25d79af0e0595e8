//! The ΔT slot scheduler.
//!
//! Fig. 2 of the paper: when the car starts moving the system predicts
//! a travel duration ΔT and "tries to allocate the most relevant
//! content for the available time ΔT, recommending media items A, B, C,
//! D. Item B is also relevant to location `L_B` the user will reach."
//!
//! The scheduler solves that allocation:
//!
//! 1. **Choosing items** — an exact 0/1 knapsack over clip durations
//!    maximizing total compound relevance within the ΔT budget.
//! 2. **Ordering** — geo-pinned items are placed so their playback
//!    covers the moment the driver passes their location; unpinned
//!    items fill the space around them by score. Gaps are simply live
//!    radio (the linear stream is always underneath — that is the
//!    hybrid-radio premise).
//! 3. **Presentation constraints** — no item boundary (a transition,
//!    with its glance-at-the-screen moment) may fall inside a
//!    distraction zone around intersections and roundabouts; boundaries
//!    are pushed past zones, and items that no longer fit are dropped.

use crate::candidates::ScoredClip;
use crate::context::DriveContext;
use pphcr_audio::ClipId;
use pphcr_geo::{TimePoint, TimeSpan};
use serde::{Deserialize, Serialize};

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Keep this much of the end of the trip free (arrival manoeuvring).
    pub reserve: TimeSpan,
    /// At most this many items (the paper's list is short: A–D).
    pub max_items: usize,
    /// Half-width of the target window for geo-pinned items, seconds.
    pub pin_tolerance_s: u64,
    /// Enforce the distraction constraint (ablation switch, E10).
    pub avoid_distraction: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            reserve: TimeSpan::minutes(2),
            max_items: 6,
            pin_tolerance_s: 120,
            avoid_distraction: true,
        }
    }
}

/// One scheduled item on the trip timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledItem {
    /// The clip to play.
    pub clip: ClipId,
    /// Start, seconds from "now" (the scheduling instant).
    pub start_s: u64,
    /// Playback duration.
    pub duration: TimeSpan,
    /// The item's compound score.
    pub score: f64,
    /// For geo-pinned items: the along-route position (meters) the item
    /// should cover.
    pub pinned_along_m: Option<f64>,
}

impl ScheduledItem {
    /// End instant, seconds from now.
    #[must_use]
    pub fn end_s(&self) -> u64 {
        self.start_s + self.duration.as_seconds()
    }
}

/// The packed trip schedule.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SlotSchedule {
    /// Items in playback order.
    pub items: Vec<ScheduledItem>,
    /// Sum of scheduled items' scores (the relevance objective).
    pub total_score: f64,
    /// The ΔT budget the schedule was packed for.
    pub budget: TimeSpan,
    /// When the schedule was computed.
    pub computed_at: TimePoint,
}

impl SlotSchedule {
    /// Total scheduled playback time.
    #[must_use]
    pub fn filled(&self) -> TimeSpan {
        TimeSpan::seconds(self.items.iter().map(|i| i.duration.as_seconds()).sum())
    }

    /// Fraction of the budget filled with recommended audio, `[0, 1]`.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        let b = self.budget.as_seconds();
        if b == 0 {
            return 0.0;
        }
        self.filled().as_seconds() as f64 / b as f64
    }

    /// True when no item interval overlaps another and items are in
    /// start order (schedule invariant).
    #[must_use]
    // lint: allow(dead) — tests/properties.rs::pack_invariants and tests/scenarios.rs::lilly_proactive_morning check every packed schedule with it
    pub fn is_well_formed(&self) -> bool {
        self.items.windows(2).all(|w| w[0].end_s() <= w[1].start_s)
    }
}

impl SchedulerConfig {
    /// Packs ranked candidates into the drive's ΔT (Fig. 2).
    #[must_use]
    pub fn pack(
        &self,
        ranked: &[ScoredClip],
        drive: &DriveContext,
        now: TimePoint,
    ) -> SlotSchedule {
        let budget_s = drive.delta_t().minus(self.reserve).as_seconds();
        let mut schedule = SlotSchedule {
            items: Vec::new(),
            total_score: 0.0,
            budget: drive.delta_t(),
            computed_at: now,
        };
        if budget_s < 30 {
            return schedule; // too short a trip to interrupt at all
        }
        // Phase 1: selection.
        // Non-finite scores would corrupt the knapsack value function
        // and the `total_cmp` orderings below; the constructor-level
        // sanitizer makes them impossible for well-formed candidates,
        // so drop any stragglers defensively.
        let usable: Vec<&ScoredClip> = ranked
            .iter()
            .filter(|c| {
                c.score.is_finite()
                    && c.duration.as_seconds() > 0
                    && c.duration.as_seconds() <= budget_s
            })
            .collect();
        let selected = knapsack_dp(&usable, budget_s, self.max_items);
        // Phase 2: ordering. Pinned items first, by along-route ETA.
        let zones = if self.avoid_distraction { drive.zone_windows() } else { Vec::new() };
        let mut pinned: Vec<(&ScoredClip, f64)> =
            selected.iter().filter_map(|c| c.along_route_m.map(|along| (*c, along))).collect();
        pinned.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut unpinned: Vec<&ScoredClip> =
            selected.iter().copied().filter(|c| c.along_route_m.is_none()).collect();
        unpinned.sort_by(|a, b| b.score.total_cmp(&a.score));

        let mut items: Vec<ScheduledItem> = Vec::with_capacity(selected.len());
        let mut cursor = 0u64;
        let mut un_iter = unpinned.into_iter().peekable();
        for (p, along) in pinned {
            let dur = p.duration.as_seconds();
            let eta = drive.eta_seconds(along);
            let ideal_start = eta.saturating_sub(dur / 2);
            // Fill the gap before the pinned item with unpinned content
            // that finishes in time.
            while let Some(next) = un_iter.peek() {
                let ndur = next.duration.as_seconds();
                if cursor + ndur <= ideal_start.max(cursor) && cursor + ndur <= budget_s {
                    let Some(c) = un_iter.next() else { break };
                    if let Some(item) = place(c, cursor, &zones, budget_s, None) {
                        cursor = item.end_s();
                        items.push(item);
                    }
                } else {
                    break;
                }
            }
            let start = ideal_start.max(cursor);
            if let Some(item) = place(p, start, &zones, budget_s, p.along_route_m) {
                // The pin is only honoured if playback still covers the
                // location within tolerance; otherwise schedule it as
                // ordinary content at the cursor.
                let covers = item.start_s <= eta + self.pin_tolerance_s
                    && item.end_s() + self.pin_tolerance_s >= eta;
                if covers {
                    cursor = item.end_s();
                    items.push(item);
                    continue;
                }
            }
            if let Some(item) = place(p, cursor, &zones, budget_s, None) {
                cursor = item.end_s();
                items.push(item);
            }
        }
        // Remaining unpinned fill the tail.
        for c in un_iter {
            if let Some(item) = place(c, cursor, &zones, budget_s, None) {
                cursor = item.end_s();
                items.push(item);
            }
        }
        items.sort_by_key(|i| i.start_s);
        schedule.total_score = items.iter().map(|i| i.score).sum();
        schedule.items = items;
        schedule
    }
}

/// Places an item at or after `start`, pushing its boundaries out of
/// distraction zones. Returns `None` when it no longer fits the budget.
fn place(
    clip: &ScoredClip,
    start: u64,
    zones: &[(u64, u64)],
    budget_s: u64,
    pinned_along_m: Option<f64>,
) -> Option<ScheduledItem> {
    let dur = clip.duration.as_seconds();
    let mut s = start;
    // Each push moves `s` to a zone end, so this terminates.
    loop {
        let start_zone = zones.iter().find(|&&(a, b)| s >= a && s < b);
        if let Some(&(_, b)) = start_zone {
            s = b;
            continue;
        }
        let end = s + dur;
        let end_zone = zones.iter().find(|&&(a, b)| end > a && end <= b);
        if let Some(&(_, b)) = end_zone {
            // Push the whole item so its end strictly clears the zone
            // (the +1 guarantees progress when end == b).
            s += b - end + 1;
            continue;
        }
        break;
    }
    (s + dur <= budget_s).then_some(ScheduledItem {
        clip: clip.clip,
        start_s: s,
        duration: clip.duration,
        score: clip.score,
        pinned_along_m,
    })
}

/// Exact 0/1 knapsack (10 s quantization) maximizing score under the
/// duration budget and an item-count cap.
fn knapsack_dp<'a>(
    items: &[&'a ScoredClip],
    budget_s: u64,
    max_items: usize,
) -> Vec<&'a ScoredClip> {
    const QUANTUM: u64 = 10;
    let weight_of = |it: &ScoredClip| it.duration.as_seconds().div_ceil(QUANTUM) as usize;
    let cap = (budget_s / QUANTUM) as usize;
    let k = max_items.min(items.len());
    if cap == 0 || k == 0 {
        return Vec::new();
    }
    // Both tables are flat, row-major blocks of `width`-long rows.
    // dp row `count`: best score per weight; row 0 is the base case.
    let width = cap + 1;
    let mut dp = vec![f64::NEG_INFINITY; (k + 1) * width];
    dp[0] = 0.0;
    // taken row `i * (k + 1) + count`: did item i get taken to reach
    // the state (count, weight).
    let mut taken = vec![false; items.len() * (k + 1) * width];
    for (it, taken_rows) in items.iter().zip(taken.chunks_exact_mut((k + 1) * width)) {
        let w = weight_of(it);
        if w > cap {
            continue;
        }
        for count in (1..=k).rev() {
            // Row `count - 1` still holds the state before this item.
            let (below, from_row) = dp.split_at_mut(count * width);
            let prev = &below[(count - 1) * width..][..width - w];
            let row = &mut from_row[w..width];
            let taken_row = &mut taken_rows[count * width + w..(count + 1) * width];
            for ((best, took), &base) in row.iter_mut().zip(taken_row).zip(prev) {
                let cand = base + it.score;
                if cand > *best {
                    *best = cand;
                    *took = true;
                }
            }
        }
    }
    // Best terminal state, scanning rows in count order.
    let (mut best_state, mut best) = (0usize, 0.0f64);
    for (state, &score) in dp.iter().enumerate() {
        if score > best {
            best = score;
            best_state = state;
        }
    }
    // Reconstruct by replaying items in reverse.
    let mut out = Vec::new();
    let (mut count, mut weight) = (best_state / width, best_state % width);
    for (i, it) in items.iter().enumerate().rev() {
        if count == 0 {
            break;
        }
        if taken[(i * (k + 1) + count) * width + weight] {
            out.push(*it);
            count -= 1;
            weight -= weight_of(it);
        }
    }
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DriveContext;
    use pphcr_geo::{DistractionZone, NodeId, NodeKind, ProjectedPoint};
    use pphcr_trajectory::TripPrediction;

    fn clip(id: u64, minutes: u64, score: f64) -> ScoredClip {
        ScoredClip {
            clip: ClipId(id),
            duration: TimeSpan::minutes(minutes),
            score,
            content_score: score,
            context_score: score,
            geo_distance_m: None,
            along_route_m: None,
        }
    }

    fn pinned_clip(id: u64, minutes: u64, score: f64, along_m: f64) -> ScoredClip {
        ScoredClip {
            along_route_m: Some(along_m),
            geo_distance_m: Some(50.0),
            ..clip(id, minutes, score)
        }
    }

    /// 30-minute drive over a 18 km straight route (10 m/s).
    fn drive(zones: Vec<DistractionZone>) -> DriveContext {
        let prediction = TripPrediction {
            destination: 1,
            confidence: 0.9,
            total_duration: TimeSpan::minutes(32),
            remaining: TimeSpan::minutes(30),
            route_ahead: vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(18_000.0, 0.0)],
            complexity: 1.0,
            posterior: vec![(1, 1.0)],
        };
        DriveContext::new(prediction, zones)
    }

    fn zone(start_m: f64, end_m: f64) -> DistractionZone {
        DistractionZone { node: NodeId(0), kind: NodeKind::Roundabout, start_m, end_m }
    }

    #[test]
    fn fills_budget_with_best_items() {
        let cfg = SchedulerConfig::default();
        let ranked = vec![clip(1, 10, 0.9), clip(2, 10, 0.8), clip(3, 10, 0.7), clip(4, 10, 0.2)];
        let sched = cfg.pack(&ranked, &drive(vec![]), TimePoint::at(0, 8, 0, 0));
        // Budget = 28 min → two 10-min clips fit before... actually 2.8
        // clips → two fit fully (28/10 = 2 with count cap 6).
        let ids: Vec<u64> = sched.items.iter().map(|i| i.clip.0).collect();
        assert!(ids.contains(&1) && ids.contains(&2), "{ids:?}");
        assert!(!ids.contains(&4) || ids.len() <= cfg.max_items);
        assert!(sched.is_well_formed());
        assert!(sched.filled() <= TimeSpan::minutes(28));
        assert!(sched.fill_ratio() > 0.5);
    }

    #[test]
    fn knapsack_takes_both_long_clips_over_the_dense_short_one() {
        // Taking clips by score density would start with the 0.5/5-min
        // clip and then fit only one 13-min clip into the 28-min
        // budget; the exact knapsack fits both 13-min clips.
        let ranked = vec![clip(1, 13, 0.85), clip(2, 13, 0.85), clip(3, 5, 0.5)];
        let dp =
            SchedulerConfig::default().pack(&ranked, &drive(vec![]), TimePoint::at(0, 8, 0, 0));
        assert!(dp.total_score > 1.6, "both large clips selected: {}", dp.total_score);
    }

    #[test]
    fn exact_dp_matches_bruteforce_on_small_instances() {
        let items = [
            clip(1, 7, 0.31),
            clip(2, 11, 0.47),
            clip(3, 4, 0.22),
            clip(4, 9, 0.40),
            clip(5, 13, 0.55),
        ];
        let refs: Vec<&ScoredClip> = items.iter().collect();
        let budget = 22 * 60;
        let picked = knapsack_dp(&refs, budget, 6);
        let dp_score: f64 = picked.iter().map(|c| c.score).sum();
        // Brute force over all subsets.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << items.len()) {
            let dur: u64 = items
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, c)| c.duration.as_seconds())
                .sum();
            if dur <= budget {
                let score: f64 = items
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, c)| c.score)
                    .sum();
                best = best.max(score);
            }
        }
        assert!((dp_score - best).abs() < 1e-9, "dp {dp_score} vs brute {best}");
    }

    /// The nested-vector knapsack the flat tables replaced.
    fn knapsack_dp_nested<'a>(
        items: &[&'a ScoredClip],
        budget_s: u64,
        max_items: usize,
    ) -> Vec<&'a ScoredClip> {
        let cap = (budget_s / 10) as usize;
        let k = max_items.min(items.len());
        if cap == 0 || k == 0 {
            return Vec::new();
        }
        let mut dp = vec![vec![f64::NEG_INFINITY; cap + 1]; k + 1];
        dp[0][0] = 0.0;
        let mut taken = vec![vec![vec![false; cap + 1]; k + 1]; items.len()];
        for (i, it) in items.iter().enumerate() {
            let w = (it.duration.as_seconds().div_ceil(10)) as usize;
            for count in (1..=k).rev() {
                for weight in (w..=cap).rev() {
                    let cand = dp[count - 1][weight - w] + it.score;
                    if cand > dp[count][weight] {
                        dp[count][weight] = cand;
                        taken[i][count][weight] = true;
                    }
                }
            }
        }
        let (mut best_count, mut best_weight, mut best) = (0usize, 0usize, 0.0f64);
        for (count, row) in dp.iter().enumerate() {
            for (weight, &score) in row.iter().enumerate() {
                if score > best {
                    best = score;
                    best_count = count;
                    best_weight = weight;
                }
            }
        }
        let mut out = Vec::new();
        let (mut count, mut weight) = (best_count, best_weight);
        for (i, it) in items.iter().enumerate().rev() {
            if count == 0 {
                break;
            }
            if taken[i][count][weight] {
                out.push(*it);
                count -= 1;
                weight -= (it.duration.as_seconds().div_ceil(10)) as usize;
            }
        }
        out.reverse();
        out
    }

    proptest::proptest! {
        #[test]
        fn flat_knapsack_picks_what_the_nested_one_did(
            specs in proptest::collection::vec((0u8..6, 0u8..6), 0..40),
            budget_s in 0u64..2_400,
            max_items in 0usize..8,
        ) {
            // Few distinct scores and durations: equal-valued subsets
            // abound, so only the same recurrence, the same strict `>`
            // and the same reconstruction pick the same items.
            let items: Vec<ScoredClip> = specs
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| ScoredClip {
                    duration: TimeSpan::seconds([15, 60, 95, 180, 300, 2_500][usize::from(d)]),
                    ..clip(i as u64, 0, [0.1, 0.2, 0.3, 0.25, 0.5, 0.05][usize::from(s)])
                })
                .collect();
            let refs: Vec<&ScoredClip> = items.iter().collect();
            let ids = |picked: Vec<&ScoredClip>| picked.iter().map(|c| c.clip).collect::<Vec<_>>();
            proptest::prop_assert_eq!(
                ids(knapsack_dp(&refs, budget_s, max_items)),
                ids(knapsack_dp_nested(&refs, budget_s, max_items))
            );
        }
    }

    #[test]
    fn item_count_cap_respected() {
        let cfg = SchedulerConfig { max_items: 2, ..Default::default() };
        let ranked: Vec<ScoredClip> = (0..10).map(|i| clip(i, 3, 0.5)).collect();
        let sched = cfg.pack(&ranked, &drive(vec![]), TimePoint::at(0, 8, 0, 0));
        assert!(sched.items.len() <= 2);
    }

    #[test]
    fn pinned_item_covers_its_location() {
        let cfg = SchedulerConfig::default();
        // Item pinned at 12 km → ETA 1200 s.
        let ranked = vec![clip(1, 8, 0.9), pinned_clip(2, 6, 0.8, 12_000.0), clip(3, 5, 0.6)];
        let d = drive(vec![]);
        let sched = cfg.pack(&ranked, &d, TimePoint::at(0, 8, 0, 0));
        let pinned = sched.items.iter().find(|i| i.clip == ClipId(2)).expect("pinned scheduled");
        let eta = 1_200u64;
        assert!(
            pinned.start_s <= eta + cfg.pin_tolerance_s
                && pinned.end_s() + cfg.pin_tolerance_s >= eta,
            "pinned item [{}, {}] must cover ETA {eta}",
            pinned.start_s,
            pinned.end_s()
        );
        assert!(sched.is_well_formed());
    }

    #[test]
    fn boundaries_avoid_distraction_zones() {
        // A roundabout zone at 2.4–2.6 km → seconds 240–260.
        let d = drive(vec![zone(2_400.0, 2_600.0)]);
        let cfg = SchedulerConfig::default();
        // A 4-minute clip starting at 0 would end at 240 s — exactly at
        // the zone edge; craft clips so a boundary would land inside.
        let ranked = vec![clip(1, 4, 0.9), clip(2, 4, 0.8), clip(3, 4, 0.7)];
        let sched = cfg.pack(&ranked, &d, TimePoint::at(0, 8, 0, 0));
        let zones = d.zone_windows();
        for item in &sched.items {
            for &(a, b) in &zones {
                assert!(
                    !(item.start_s >= a && item.start_s < b),
                    "start {} inside zone [{a},{b})",
                    item.start_s
                );
                let e = item.end_s();
                assert!(!(e > a && e <= b), "end {e} inside zone [{a},{b})");
            }
        }
        assert!(sched.is_well_formed());
    }

    #[test]
    fn ablation_disabling_distraction_lets_boundaries_in() {
        // Zone 2.35–2.5 km → seconds (235, 250): the 240 s boundary of
        // back-to-back 4-minute items lands inside it.
        let d = drive(vec![zone(2_350.0, 2_500.0)]);
        let on = SchedulerConfig::default();
        let off = SchedulerConfig { avoid_distraction: false, ..Default::default() };
        let ranked: Vec<ScoredClip> = (0..7).map(|i| clip(i, 4, 0.9 - 0.05 * i as f64)).collect();
        let t = TimePoint::at(0, 8, 0, 0);
        let sched_on = on.pack(&ranked, &d, t);
        let sched_off = off.pack(&ranked, &d, t);
        let zones = d.zone_windows();
        let violations = |s: &SlotSchedule| {
            s.items
                .iter()
                .flat_map(|i| [i.start_s, i.end_s()])
                .filter(|&b| zones.iter().any(|&(a, z)| b > a && b < z))
                .count()
        };
        assert_eq!(violations(&sched_on), 0);
        assert!(violations(&sched_off) >= 1, "with 4-min items, 240 s boundary hits the zone");
        // The constraint costs some relevance (or at least never gains).
        assert!(sched_on.total_score <= sched_off.total_score + 1e-9);
    }

    #[test]
    fn very_short_trip_schedules_nothing() {
        let prediction = TripPrediction {
            destination: 1,
            confidence: 0.9,
            total_duration: TimeSpan::minutes(3),
            remaining: TimeSpan::minutes(2),
            route_ahead: vec![ProjectedPoint::new(0.0, 0.0), ProjectedPoint::new(1_200.0, 0.0)],
            complexity: 0.0,
            posterior: vec![(1, 1.0)],
        };
        let d = DriveContext::new(prediction, vec![]);
        let sched =
            SchedulerConfig::default().pack(&[clip(1, 1, 0.9)], &d, TimePoint::at(0, 8, 0, 0));
        assert!(sched.items.is_empty(), "2 min − 2 min reserve = nothing to fill");
    }

    #[test]
    fn overlong_clips_are_skipped() {
        let cfg = SchedulerConfig::default();
        let ranked = vec![clip(1, 45, 1.0), clip(2, 10, 0.4)];
        let sched = cfg.pack(&ranked, &drive(vec![]), TimePoint::at(0, 8, 0, 0));
        let ids: Vec<u64> = sched.items.iter().map(|i| i.clip.0).collect();
        assert_eq!(ids, vec![2], "45-min clip cannot fit a 28-min budget");
    }

    #[test]
    fn empty_candidates_empty_schedule() {
        let sched = SchedulerConfig::default().pack(&[], &drive(vec![]), TimePoint::at(0, 8, 0, 0));
        assert!(sched.items.is_empty());
        assert_eq!(sched.fill_ratio(), 0.0);
    }
}
