//! Microbenchmarks of the coordination mechanisms and kernel primitives:
//! the cost story behind the paper's claim that Tune/Trigger are cheap
//! enough to standardize (§3.3).

use coord::{wire, CoordMsg, EntityId, IslandId, TokenBucket};
use metrics::ResponseStats;
use simcore::stats::{Histogram, OnlineStats};
use simcore::{EventQueue, Nanos, SimRng};
use simtest::BenchSuite;
use std::hint::black_box;

fn main() {
    let mut suite = BenchSuite::new("micro");

    let msg = CoordMsg::Tune {
        entity: EntityId(3),
        delta: -128,
        target: Some(IslandId(0)),
    };
    suite.bench("wire/encode_tune", || {
        let mut buf = Vec::with_capacity(16);
        black_box(wire::encode(black_box(&msg), &mut buf));
        buf
    });
    let mut buf = Vec::new();
    wire::encode(&msg, &mut buf);
    suite.bench("wire/decode_tune", || {
        wire::decode(black_box(&buf)).unwrap()
    });

    let mut rng = SimRng::new(7);
    suite.bench("event_queue/schedule_pop_1k", || {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(Nanos(rng.next_u64() % 1_000_000), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum += v;
        }
        black_box(sum)
    });

    let mut rng = SimRng::new(1);
    suite.bench("rng/exponential", || black_box(rng.exponential(4.0)));
    let mut rng = SimRng::new(2);
    let weights: Vec<f64> = (1..=16).map(|i| i as f64).collect();
    suite.bench("rng/weighted_index_16", || {
        black_box(rng.weighted_index(&weights))
    });

    let mut s = OnlineStats::new();
    let mut x = 0.0;
    suite.bench("stats/welford_record", || {
        x += 1.0;
        s.record(black_box(x));
    });
    let mut h = Histogram::latency_millis();
    let mut y = 0.1;
    suite.bench("stats/histogram_record", || {
        y = (y * 1.1) % 1e4;
        h.record(black_box(y));
    });

    // One record updates a type's summary and histogram and the overall
    // pair; four RUBiS type names, latencies from 0.5 ms to ~200 ms.
    let mut responses = ResponseStats::new();
    let names = ["BrowseCategories", "PutBid", "SearchItems", "ViewItem"];
    let mut i = 0u64;
    suite.bench("metrics/response_record", || {
        i += 1;
        let latency = Nanos::from_micros(500 + (i * 7919) % 200_000);
        responses.record(black_box(names[(i % 4) as usize]), black_box(latency));
    });

    let mut bucket = TokenBucket::new(1e6, 1e3);
    let mut t = Nanos::ZERO;
    suite.bench("coord/token_bucket_try_take", || {
        t += Nanos(1000);
        black_box(bucket.try_take(t))
    });

    suite.finish();
}
