//! Versioned full-state snapshot of the engine.
//!
//! Layout: `magic "PPHS" | version u32 | last_wal_seq u64 | count u32`
//! followed by `count` sections, each `id u16 | len u64 | crc u32 |
//! payload`. Every section carries its own CRC32, so corruption is
//! pinned to a section ([`PersistError::SectionCorrupt`]) instead of
//! silently poisoning the whole restore.
//!
//! Derived state is *rebuilt*, not stored: feedback preference folds,
//! mobility models and the repository index are deterministic functions
//! of their inputs, so the decoder re-records events and re-ingests
//! clips through the same code paths the live engine used. What cannot
//! be re-derived — RNG states, bus wire state, retry ledgers, health
//! ladders, observability counters and the decision-trace ring — is
//! stored bit-exactly.

use super::codec::{crc32, ByteReader, ByteWriter};
use super::types::{
    get_cached, get_clip_meta, get_dead_letter, get_decision, get_envelope, get_feedback_event,
    get_fix, get_gazetteer, get_geo_point, get_health, get_injection, get_obs_snapshot,
    get_outstanding, get_player, get_proactivity, get_profile, get_recommender, get_road_network,
    get_schedule, get_topic, get_trip, put_cached, put_clip_meta, put_dead_letter, put_decision,
    put_envelope, put_feedback_event, put_fix, put_gazetteer, put_geo_point, put_health,
    put_injection, put_obs_snapshot, put_outstanding, put_player, put_proactivity, put_profile,
    put_recommender, put_road_network, put_schedule, put_topic, put_trip,
};
use super::PersistError;
use crate::bus::{Envelope, Topic};
use crate::engine::{CacheQuanta, CachedCandidates, Engine, EngineConfig};
use crate::fault::{transport_from_state, ChaosRng, FaultProfile, TransportState, WireStats};
use crate::injection::InjectionQueue;
use crate::netcost::UnicastLink;
use crate::retry::{BackoffPolicy, OutstandingDelivery};
use pphcr_audio::ClipId;
use pphcr_catalog::ClipMetadata;
use pphcr_geo::{TimePoint, TimeSpan};
use pphcr_nlp::NaiveBayes;
use pphcr_obs::{DecisionTrace, Histogram, ObsSnapshot};
use pphcr_trajectory::TripPredictor;
use pphcr_userdata::UserId;
use std::collections::{HashMap, VecDeque};

/// The four magic bytes opening every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PPHS";
/// The current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 5;

const SECTION_CONFIG: u16 = 1;
const SECTION_CATALOG: u16 = 2;
const SECTION_NLP: u16 = 3;
const SECTION_USERS: u16 = 4;
const SECTION_BUS: u16 = 5;
const SECTION_OBS: u16 = 6;
const SECTION_DECISIONS: u16 = 7;

/// All section ids, in file order.
const SECTION_IDS: [u16; 7] = [
    SECTION_CONFIG,
    SECTION_CATALOG,
    SECTION_NLP,
    SECTION_USERS,
    SECTION_BUS,
    SECTION_OBS,
    SECTION_DECISIONS,
];

/// Serializes the full engine state.
///
/// `last_wal_seq` is the sequence number of the last WAL record already
/// reflected in this state; [`super::restore_engine`] replays only
/// records after it.
///
/// Fails with [`PersistError::UnsupportedTransport`] when the installed
/// bus transport cannot export its wire state.
pub fn snapshot_engine(engine: &Engine, last_wal_seq: u64) -> Result<Vec<u8>, PersistError> {
    let transport =
        engine.bus.transport.export_state().ok_or(PersistError::UnsupportedTransport)?;
    let sections: [(u16, Vec<u8>); 7] = [
        (SECTION_CONFIG, encode_config(engine)),
        (SECTION_CATALOG, encode_catalog(engine)),
        (SECTION_NLP, encode_nlp(engine)),
        (SECTION_USERS, encode_users(engine)),
        (SECTION_BUS, encode_bus(engine, &transport)),
        (SECTION_OBS, encode_obs(engine)),
        (SECTION_DECISIONS, encode_decisions(engine)),
    ];
    let mut out = ByteWriter::new();
    out.put_bytes(&SNAPSHOT_MAGIC);
    out.put_u32(SNAPSHOT_VERSION);
    out.put_u64(last_wal_seq);
    out.put_seq(&sections, |w, (id, payload)| {
        w.put_u16(*id);
        w.put_u64(payload.len() as u64);
        w.put_u32(crc32(payload));
        w.put_bytes(payload);
    });
    Ok(out.into_inner())
}

/// Decodes a snapshot back into an engine, returning it together with
/// the `last_wal_seq` recorded in the header.
pub fn decode_engine(bytes: &[u8]) -> Result<(Engine, u64), PersistError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    let last_seq = r.u64()?;
    let mut parts: [Option<&[u8]>; 7] = [None; 7];
    r.seq(|r| {
        let id = r.u16()?;
        let len = r.u64()? as usize;
        let crc = r.u32()?;
        let payload = r.take(len)?;
        if crc32(payload) != crc {
            return Err(PersistError::SectionCorrupt { id });
        }
        let Some(pos) = SECTION_IDS.iter().position(|s| *s == id) else {
            return Err(PersistError::UnknownSection { id });
        };
        if let Some(slot) = parts.get_mut(pos) {
            *slot = Some(payload);
        }
        Ok(())
    })?;
    let section =
        |pos: usize| -> Result<&[u8], PersistError> {
            parts.get(pos).copied().flatten().ok_or(PersistError::MissingSection {
                id: SECTION_IDS.get(pos).copied().unwrap_or(0),
            })
        };
    let mut engine = decode_config(section(0)?)?;
    decode_catalog(&mut engine, section(1)?)?;
    decode_nlp(&mut engine, section(2)?)?;
    decode_users(&mut engine, section(3)?)?;
    decode_bus(&mut engine, section(4)?)?;
    decode_obs(&mut engine, section(5)?)?;
    decode_decisions(&mut engine, section(6)?)?;
    Ok((engine, last_seq))
}

// ---------------------------------------------------------------------
// Per-user maps
// ---------------------------------------------------------------------

/// A per-user map's entries by ascending user id.
fn sorted_by_user<V>(map: &HashMap<UserId, V>) -> Vec<(UserId, &V)> {
    // lint: allow(hash-iter) — entries are sorted immediately below
    let mut entries: Vec<(UserId, &V)> = map.iter().map(|(u, v)| (*u, v)).collect();
    entries.sort_unstable_by_key(|(u, _)| u.0);
    entries
}

/// `(user, value)` entries by ascending user id.
fn put_user_map<V>(w: &mut ByteWriter, map: &HashMap<UserId, V>, f: impl Fn(&mut ByteWriter, &V)) {
    w.put_seq(sorted_by_user(map), |w, (user, v)| {
        w.put_u64(user.0);
        f(w, v);
    });
}

fn get_user_map<V>(
    r: &mut ByteReader<'_>,
    f: impl Fn(&mut ByteReader<'_>) -> Result<V, PersistError>,
) -> Result<HashMap<UserId, V>, PersistError> {
    Ok(r.seq(|r| Ok((UserId(r.u64()?), f(r)?)))?.into_iter().collect())
}

// ---------------------------------------------------------------------
// Section 1: CONFIG — EngineConfig, recommender, static geography
// ---------------------------------------------------------------------

fn encode_config(engine: &Engine) -> Vec<u8> {
    let config = engine.config();
    let mut w = ByteWriter::new();
    put_geo_point(&mut w, &config.origin);
    put_recommender(&mut w, &engine.recommender);
    w.put_f64(config.predictor.hour_weight);
    w.put_f64(config.predictor.geometry_scale_m);
    w.put_f64(config.predictor.min_confidence);
    w.put_f64(config.classifier_alpha);
    w.put_f64(config.junction_snap_m);
    w.put_u64(config.backoff.base.0);
    w.put_f64(config.backoff.factor);
    w.put_u64(config.backoff.max_delay.0);
    w.put_f64(config.backoff.jitter_frac);
    w.put_u32(config.backoff.budget);
    w.put_u64(config.chaos_seed);
    w.put_u64(config.stale_fix_after.0);
    w.put_u64(config.worker_threads as u64);
    w.put_bool(config.obs_enabled);
    w.put_u64(config.trace_capacity as u64);
    w.put_u64(config.cache_quanta.freshness.0);
    w.put_u64(config.cache_quanta.decay.0);
    w.put_u64(config.cache_quanta.phase.0);
    w.put_f64(config.cache_quanta.position_m);
    w.put_opt(engine.road_network.as_ref(), put_road_network);
    w.put_opt(engine.gazetteer.as_ref(), put_gazetteer);
    w.into_inner()
}

fn decode_config(bytes: &[u8]) -> Result<Engine, PersistError> {
    let mut r = ByteReader::new(bytes);
    let origin = get_geo_point(&mut r)?;
    let recommender = get_recommender(&mut r)?;
    let predictor = TripPredictor {
        hour_weight: r.f64()?,
        geometry_scale_m: r.f64()?,
        min_confidence: r.f64()?,
    };
    let classifier_alpha = r.f64()?;
    if !classifier_alpha.is_finite() || classifier_alpha <= 0.0 {
        return Err(PersistError::Corrupt { what: "classifier alpha" });
    }
    let junction_snap_m = r.f64()?;
    let backoff = BackoffPolicy {
        base: TimeSpan(r.u64()?),
        factor: r.f64()?,
        max_delay: TimeSpan(r.u64()?),
        jitter_frac: r.f64()?,
        budget: r.u32()?,
    };
    let chaos_seed = r.u64()?;
    let stale_fix_after = TimeSpan(r.u64()?);
    let worker_threads = r.u64()? as usize;
    if worker_threads == 0 {
        return Err(PersistError::Corrupt { what: "worker thread count" });
    }
    let obs_enabled = r.bool()?;
    let trace_capacity = r.u64()? as usize;
    let cache_quanta = CacheQuanta {
        freshness: TimeSpan(r.u64()?),
        decay: TimeSpan(r.u64()?),
        phase: TimeSpan(r.u64()?),
        position_m: r.f64()?,
    };
    if !cache_quanta.position_m.is_finite() || cache_quanta.position_m <= 0.0 {
        return Err(PersistError::Corrupt { what: "cache quanta position pitch" });
    }
    let config = EngineConfig {
        origin,
        predictor,
        classifier_alpha,
        junction_snap_m,
        backoff,
        chaos_seed,
        stale_fix_after,
        worker_threads,
        obs_enabled,
        trace_capacity,
        cache_quanta,
    };
    let mut engine = Engine::new(config);
    engine.recommender = recommender;
    engine.road_network = r.opt(get_road_network)?;
    engine.gazetteer = r.opt(get_gazetteer)?;
    Ok(engine)
}

// ---------------------------------------------------------------------
// Section 2: CATALOG — clip metadata and index meta
// ---------------------------------------------------------------------

fn encode_catalog(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(engine.next_clip_id);
    w.put_u64(engine.repo.epoch());
    w.put_f64(engine.repo.max_tag_radius_m());
    let mut clips: Vec<&ClipMetadata> = engine.repo.iter().collect();
    clips.sort_unstable_by_key(|c| c.id.0);
    w.put_seq(clips, put_clip_meta);
    w.into_inner()
}

fn decode_catalog(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);
    engine.next_clip_id = r.u64()?;
    let epoch = r.u64()?;
    let max_tag_radius_m = r.f64()?;
    r.seq(|r| {
        engine.repo.ingest(get_clip_meta(r)?);
        Ok(())
    })?;
    engine.repo.restore_index_meta(epoch, max_tag_radius_m);
    Ok(())
}

// ---------------------------------------------------------------------
// Section 3: NLP — vocabulary and classifier counts
// ---------------------------------------------------------------------

fn encode_nlp(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_seq(0..engine.vocab.len() as u32, |w, id| {
        w.put_str(engine.vocab.token(id).unwrap_or(""));
    });
    w.put_u32(engine.classifier.n_categories());
    w.put_f64(engine.classifier.alpha());
    let (doc_counts, category_tokens, token_counts) = engine.classifier.export_raw_counts();
    w.put_seq(doc_counts, |w, v| w.put_u64(*v));
    w.put_seq(category_tokens, |w, v| w.put_u64(*v));
    w.put_seq(token_counts, |w, row| w.put_seq(row, |w, v| w.put_u64(*v)));
    w.put_u64(engine.classifier_docs);
    w.into_inner()
}

fn decode_nlp(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);
    r.seq(|r| {
        engine.vocab.intern(&r.string()?);
        Ok(())
    })?;
    let n_categories = r.u32()?;
    let alpha = r.f64()?;
    let doc_counts = r.seq(ByteReader::u64)?;
    let category_tokens = r.seq(ByteReader::u64)?;
    let token_counts = r.seq(|r| r.seq(ByteReader::u64))?;
    engine.classifier =
        NaiveBayes::from_raw_counts(n_categories, alpha, doc_counts, category_tokens, token_counts)
            .ok_or(PersistError::Corrupt { what: "classifier counts" })?;
    engine.classifier_docs = r.u64()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Section 4: USERS — every per-listener store and ladder
// ---------------------------------------------------------------------

fn encode_users(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();

    let mut profiles: Vec<_> = engine.profiles.iter().collect();
    profiles.sort_unstable_by_key(|p| p.id.0);
    w.put_seq(profiles, put_profile);

    w.put_seq(engine.feedback.known_users(), |w, user| {
        w.put_u64(user.0);
        w.put_seq(engine.feedback.events(user), put_feedback_event);
    });

    w.put_seq(engine.tracking.known_users(), |w, user| {
        w.put_u64(user.0);
        w.put_seq(engine.tracking.trace(user).map_or(&[][..], |t| t.fixes()), put_fix);
    });
    w.put_u64(engine.tracking.dropped_invalid());

    w.put_u64(engine.sessions_closed);

    w.put_seq(sorted_by_user(&engine.players), |w, (_, p)| put_player(w, p));
    put_user_map(&mut w, &engine.proactivity, put_proactivity);
    put_user_map(&mut w, &engine.trips, put_trip);

    let heard_users: Vec<UserId> =
        engine.hot.users_sorted().into_iter().filter(|&u| engine.hot.heard_len(u) > 0).collect();
    w.put_seq(heard_users, |w, user| {
        w.put_u64(user.0);
        let mut clips: Vec<u64> =
            engine.hot.heard_ref(user).map(|s| s.iter().map(|c| c.0).collect()).unwrap_or_default();
        clips.sort_unstable();
        w.put_seq(clips, |w, c| w.put_u64(c));
    });

    put_user_map(&mut w, &engine.health, put_health);
    put_user_map(&mut w, &engine.last_acked, put_schedule);

    let caches: Vec<(UserId, &CachedCandidates)> = engine
        .hot
        .users_sorted()
        .into_iter()
        .filter_map(|u| engine.hot.cache(u).map(|c| (u, c)))
        .collect();
    w.put_seq(caches, |w, (user, c)| {
        w.put_u64(user.0);
        put_cached(w, c);
    });

    // The engine tick sequence: counter classification (same-tick warm
    // serve vs cross-tick hit) must survive a restore bit-exactly.
    w.put_u64(engine.tick_seq);

    w.into_inner()
}

fn decode_users(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);

    for profile in r.seq(get_profile)? {
        engine.profiles.upsert(profile);
    }
    r.seq(|r| {
        let _user = UserId(r.u64()?);
        r.seq(|r| {
            engine.feedback.record(get_feedback_event(r)?);
            Ok(())
        })
    })?;
    r.seq(|r| {
        let user = UserId(r.u64()?);
        r.seq(|r| {
            engine.tracking.record(user, get_fix(r)?);
            Ok(())
        })
    })?;
    engine.tracking.restore_dropped_invalid(r.u64()?);

    engine.sessions_closed = r.u64()?;

    for player in r.seq(get_player)? {
        engine.players.insert(player.user, player);
    }
    engine.proactivity = get_user_map(&mut r, get_proactivity)?;
    engine.trips = get_user_map(&mut r, get_trip)?;

    r.seq(|r| {
        let user = UserId(r.u64()?);
        r.seq(|r| {
            engine.hot.heard_insert(user, ClipId(r.u64()?));
            Ok(())
        })
    })?;

    engine.health = get_user_map(&mut r, get_health)?;
    engine.last_acked = get_user_map(&mut r, get_schedule)?;

    for (user, cached) in r.seq(|r| Ok((UserId(r.u64()?), get_cached(r)?)))? {
        engine.hot.insert_cache(user, cached);
    }

    engine.tick_seq = r.u64()?;
    // The stores were rebuilt wholesale above; re-derive the hot-state
    // revision mirrors from them.
    engine.rebuild_hot_mirrors();

    Ok(())
}

// ---------------------------------------------------------------------
// Section 5: BUS — transport wire state, queues, ledgers, RNGs
// ---------------------------------------------------------------------

fn encode_bus(engine: &Engine, transport: &TransportState) -> Vec<u8> {
    let mut w = ByteWriter::new();

    match transport {
        TransportState::Perfect { queues } => {
            w.put_u8(0);
            w.put_seq(queues, |w, (topic, envelopes)| {
                put_topic(w, *topic);
                w.put_seq(envelopes, put_envelope);
            });
        }
        TransportState::Faulty { profile, rng_state, in_flight, stats } => {
            w.put_u8(1);
            w.put_f64(profile.drop_rate);
            w.put_f64(profile.duplicate_rate);
            w.put_f64(profile.reorder_rate);
            w.put_f64(profile.delay_rate);
            w.put_u64(profile.max_delay.0);
            let caps: Vec<(Topic, usize)> = crate::fault::TOPIC_ORDER
                .iter()
                .filter_map(|t| profile.bandwidth_caps.get(t).map(|c| (*t, *c)))
                .collect();
            w.put_seq(caps, |w, (topic, cap)| {
                put_topic(w, topic);
                w.put_u64(cap as u64);
            });
            w.put_u64(*rng_state);
            w.put_seq(in_flight, |w, (topic, flights)| {
                put_topic(w, *topic);
                w.put_seq(flights, |w, (envelope, due)| {
                    put_envelope(w, envelope);
                    w.put_u64(due.0);
                });
            });
            w.put_u64(stats.dropped);
            w.put_u64(stats.duplicated);
            w.put_u64(stats.reordered);
            w.put_u64(stats.delayed);
        }
    }

    let queues: Vec<(Topic, &VecDeque<Envelope>)> = crate::fault::TOPIC_ORDER
        .iter()
        .filter_map(|t| engine.bus.queues.get(t).map(|q| (*t, q)))
        .collect();
    w.put_seq(queues, |w, (topic, envelopes)| {
        put_topic(w, topic);
        w.put_seq(envelopes, put_envelope);
    });

    w.put_seq(&engine.bus.dead_letters, put_dead_letter);

    w.put_u64(engine.bus.published);
    w.put_u64(engine.bus.delivered);
    w.put_u64(engine.bus.overflowed);
    w.put_u64(engine.bus.rejected);
    w.put_u64(engine.bus.next_seq);
    w.put_u64(engine.bus.clock.0);

    let mut outstanding: Vec<(u64, &OutstandingDelivery)> =
        engine.delivery.outstanding.iter().map(|(s, o)| (*s, o)).collect();
    outstanding.sort_unstable_by_key(|(s, _)| *s);
    w.put_seq(outstanding, |w, (seq, o)| {
        w.put_u64(seq);
        put_outstanding(w, o);
    });
    let mut seen: Vec<u64> = engine.delivery.seen.iter().copied().collect();
    seen.sort_unstable();
    w.put_seq(seen, |w, s| w.put_u64(s));
    w.put_u64(engine.delivery.retries);
    w.put_u64(engine.delivery.exhausted);
    w.put_u64(engine.delivery.duplicates);

    w.put_f64(engine.unicast.failure_rate);
    w.put_u64(engine.unicast.timeout.0);
    w.put_u64(engine.unicast.mean_latency.0);
    w.put_u64(engine.unicast.rng.state());

    put_user_map(&mut w, &engine.injections.queues, |w, pending| {
        w.put_seq(pending, put_injection);
    });
    w.put_u64(engine.injections.total_submitted);
    w.put_u64(engine.injections.total_delivered);

    w.put_u64(engine.chaos_rng.state());

    w.into_inner()
}

fn get_topic_queues(r: &mut ByteReader<'_>) -> Result<Vec<(Topic, Vec<Envelope>)>, PersistError> {
    r.seq(|r| Ok((get_topic(r)?, r.seq(get_envelope)?)))
}

fn decode_bus(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);

    let transport = match r.u8()? {
        0 => TransportState::Perfect { queues: get_topic_queues(&mut r)? },
        1 => {
            let drop_rate = r.f64()?;
            let duplicate_rate = r.f64()?;
            let reorder_rate = r.f64()?;
            let delay_rate = r.f64()?;
            let max_delay = TimeSpan(r.u64()?);
            let bandwidth_caps = r.seq(|r| Ok((get_topic(r)?, r.u64()? as usize)))?;
            let rng_state = r.u64()?;
            let in_flight = r.seq(|r| {
                Ok((get_topic(r)?, r.seq(|r| Ok((get_envelope(r)?, TimePoint(r.u64()?))))?))
            })?;
            let stats = WireStats {
                dropped: r.u64()?,
                duplicated: r.u64()?,
                reordered: r.u64()?,
                delayed: r.u64()?,
            };
            TransportState::Faulty {
                profile: FaultProfile {
                    drop_rate,
                    duplicate_rate,
                    reorder_rate,
                    delay_rate,
                    max_delay,
                    bandwidth_caps: bandwidth_caps.into_iter().collect(),
                },
                rng_state,
                in_flight,
                stats,
            }
        }
        _ => return Err(PersistError::Corrupt { what: "transport tag" }),
    };
    engine.bus.transport = transport_from_state(transport);

    for (topic, envelopes) in get_topic_queues(&mut r)? {
        engine.bus.queues.insert(topic, envelopes.into());
    }

    engine.bus.dead_letters = r.seq(get_dead_letter)?;

    engine.bus.published = r.u64()?;
    engine.bus.delivered = r.u64()?;
    engine.bus.overflowed = r.u64()?;
    engine.bus.rejected = r.u64()?;
    engine.bus.next_seq = r.u64()?;
    engine.bus.clock = TimePoint(r.u64()?);

    let outstanding = r.seq(|r| Ok((r.u64()?, get_outstanding(r)?)))?;
    engine.delivery.outstanding.extend(outstanding);
    engine.delivery.seen.extend(r.seq(ByteReader::u64)?);
    engine.delivery.retries = r.u64()?;
    engine.delivery.exhausted = r.u64()?;
    engine.delivery.duplicates = r.u64()?;

    engine.unicast = UnicastLink {
        failure_rate: r.f64()?,
        timeout: TimeSpan(r.u64()?),
        mean_latency: TimeSpan(r.u64()?),
        rng: ChaosRng::from_state(r.u64()?),
    };

    let queues = get_user_map(&mut r, |r| r.seq(get_injection))?;
    engine.injections =
        InjectionQueue { queues, total_submitted: r.u64()?, total_delivered: r.u64()? };

    engine.chaos_rng = ChaosRng::from_state(r.u64()?);

    Ok(())
}

// ---------------------------------------------------------------------
// Section 6: OBS — registry counters, gauges, histograms, trace ring
// ---------------------------------------------------------------------

/// Maps a persisted metric name back to the `&'static str` key the
/// registry requires. The allowlist covers every metric the engine
/// records; anything else in a snapshot is corruption or skew.
fn static_metric_name(name: &str) -> Result<&'static str, PersistError> {
    const NAMES: &[&str] = &[
        "bus.dead_letters",
        "bus.delivered",
        "bus.overflowed",
        "bus.published",
        "bus.rejected",
        "candidates.cache_misses",
        "candidates.cross_tick_hit",
        "candidates.ranked_len",
        "candidates.warm_serve",
        "candidates.warmed",
        "catalog.clips",
        "catalog.epoch",
        "delivery.duplicates",
        "delivery.duplicates_filtered",
        "delivery.fetch_failures",
        "delivery.outstanding",
        "delivery.replays",
        "delivery.retries",
        "delivery.success",
        "engine.tick_users",
        "engine.ticks",
        "health.broadcast_only",
        "health.degraded",
        "health.healthy",
        "health.stale_model_reuse",
        "health.step_down",
        "health.step_up",
        "health.transitions",
        "injection.sent",
        "proactive.empty_schedule",
        "proactive.no_candidates",
        "proactive.triggers",
        "retry.backoff_wait_s",
        "retry.exhausted",
        "retry.registered",
        "retry.resent",
        "schedule.delivered",
        "schedule.items",
        "tick.users",
        "trip.predicted",
    ];
    NAMES.iter().find(|n| **n == name).copied().ok_or(PersistError::UnknownMetric)
}

fn encode_obs(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bool(engine.obs.is_enabled());
    put_obs_snapshot(&mut w, &ObsSnapshot::capture(&engine.obs, &engine.obs_trace));
    w.into_inner()
}

fn decode_obs(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    let mut r = ByteReader::new(bytes);
    let _enabled = r.bool()?;
    let snap = get_obs_snapshot(&mut r)?;
    for (name, value) in &snap.counters {
        engine.obs.restore_counter(static_metric_name(name)?, *value);
    }
    for (name, value) in &snap.gauges {
        engine.obs.restore_gauge(static_metric_name(name)?, *value);
    }
    for (name, h) in snap.histograms {
        let key = static_metric_name(&name)?;
        let histogram = Histogram::from_parts(h.count, h.sum, h.buckets)
            .ok_or(PersistError::Corrupt { what: "histogram buckets" })?;
        engine.obs.restore_histogram(key, histogram);
    }
    // An encoded engine's ring always holds max(1, CONFIG's capacity).
    if snap.trace_capacity != engine.config().trace_capacity.max(1) as u64 {
        return Err(PersistError::Corrupt { what: "decision trace capacity" });
    }
    engine.obs_trace =
        DecisionTrace::from_parts(snap.trace_capacity as usize, snap.trace_dropped, snap.trace)
            .ok_or(PersistError::Corrupt { what: "decision trace" })?;
    Ok(())
}

// ---------------------------------------------------------------------
// Section 7: DECISIONS — the decision audit log
// ---------------------------------------------------------------------

fn encode_decisions(engine: &Engine) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_seq(&engine.decisions, put_decision);
    w.into_inner()
}

fn decode_decisions(engine: &mut Engine, bytes: &[u8]) -> Result<(), PersistError> {
    engine.decisions = ByteReader::new(bytes).seq(get_decision)?;
    Ok(())
}
