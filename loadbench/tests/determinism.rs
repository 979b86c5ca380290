//! The same seed gives the same arrival schedule and the same requests.

use hyrec_core::{ItemId, UserId, Vote};
use hyrec_datasets::{Timestamp, TraceEvent};
use hyrec_loadbench::schedule::{self, Arrival, Chain, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The user of every liked event: user `u` liked `u + 1` items.
fn liked_by() -> Vec<u32> {
    (0..40u32)
        .flat_map(|u| std::iter::repeat_n(u, u as usize + 1))
        .collect()
}

fn window() -> Vec<TraceEvent> {
    (0..5_000u64)
        .map(|i| TraceEvent {
            user: UserId((i % 97) as u32),
            item: ItemId((i * 7 % 1000) as u32),
            vote: if i % 3 == 0 {
                Vote::Dislike
            } else {
                Vote::Like
            },
            // Bursty: ten events share each second.
            time: Timestamp(1_000 + i / 10),
        })
        .collect()
}

fn read_mix(seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    schedule::read_mix(&mut rng, &liked_by(), 1000.0, 2_000_000_000, 0)
}

fn replay(seed: u64, shape: Shape) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    schedule::vote_replay(&mut rng, &window(), 300.0, 2_000_000_000, shape, 0.3, 0).0
}

fn requests(arrivals: &[Arrival]) -> Vec<Vec<u8>> {
    arrivals.iter().map(schedule::first_request).collect()
}

#[test]
fn same_seed_same_read_mix() {
    let (a, b) = (read_mix(7), read_mix(7));
    assert_eq!(a, b);
    assert_eq!(requests(&a), requests(&b));
    assert_ne!(a, read_mix(8));
}

#[test]
fn same_seed_same_replay() {
    for shape in [Shape::Trace, Shape::Poisson] {
        let (a, b) = (replay(7, shape), replay(7, shape));
        assert_eq!(a, b);
        assert_eq!(requests(&a), requests(&b));
        assert_ne!(a, replay(8, shape));
    }
}

#[test]
fn poisson_rate_and_bounds() {
    let mut rng = StdRng::seed_from_u64(1);
    let times = schedule::poisson_times(&mut rng, 2000.0, 5_000_000_000);
    // 10_000 expected; a Poisson count is within a few hundred of it.
    assert!((9_600..10_400).contains(&times.len()), "{}", times.len());
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    assert!(times.iter().all(|&t| t < 5_000_000_000));
}

#[test]
fn read_mix_fetches_jobs_in_proportion_to_activity() {
    let arrivals = read_mix(3);
    let mut fetches = [0usize; 40];
    for arrival in &arrivals {
        let Chain::Online { uid } = arrival.chain else {
            panic!("the read mix only fetches jobs")
        };
        fetches[uid as usize] += 1;
    }
    // User 39 liked 40 items and user 0 one: 820 likes in all.
    let expected = arrivals.len() as f64 * 40.0 / 820.0;
    assert!((fetches[39] as f64 - expected).abs() < expected * 0.3);
    assert!(fetches[0] < fetches[39] / 5);
}

#[test]
fn trace_shape_keeps_order_and_bursts() {
    let arrivals = replay(5, Shape::Trace);
    assert_eq!(arrivals.len(), 600);
    assert!(arrivals.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    assert!(arrivals.iter().all(|a| a.at_ns < 2_000_000_000));
    // Ten events per trace second stay simultaneous.
    assert_eq!(arrivals[0].at_ns, arrivals[9].at_ns);
    assert!(arrivals[10].at_ns > arrivals[9].at_ns);
    // Votes follow the trace in order.
    let window = window();
    for (arrival, event) in arrivals.iter().zip(&window) {
        let Chain::Vote {
            uid, item, like, ..
        } = arrival.chain
        else {
            panic!("replay arrivals are votes")
        };
        assert_eq!(
            (uid, item, like),
            (event.user.0, event.item.0, event.vote == Vote::Like)
        );
    }
}

#[test]
fn abandonment_share_is_respected() {
    let arrivals = replay(9, Shape::Poisson);
    let left = arrivals
        .iter()
        .filter(|a| matches!(a.chain, Chain::Vote { abandon: true, .. }))
        .count();
    let share = left as f64 / arrivals.len() as f64;
    assert!((0.24..0.36).contains(&share), "{share}");
}

#[test]
fn compress_maps_the_window_onto_the_phase() {
    assert_eq!(
        schedule::compress(&[10, 15, 20], 30, 2_000),
        vec![0, 500, 1_000]
    );
    // A window of simultaneous events is spread evenly.
    assert_eq!(schedule::compress(&[5, 5], 5, 1_000), vec![0, 500]);
    assert!(schedule::compress(&[], 9, 1_000).is_empty());
}

#[test]
fn request_ids_are_unique_per_step() {
    let mut ids: Vec<u64> = (0..1000u64)
        .flat_map(|index| (0..3).map(move |step| schedule::rid(index, step)))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 3000);
}

#[test]
fn requests_render_as_the_api_expects() {
    assert_eq!(
        schedule::online_request(5, 40),
        b"GET /online/?uid=5&rid=40 HTTP/1.1\r\nHost: hyrec\r\n\r\n".to_vec()
    );
    assert_eq!(
        schedule::rate_request(5, 9, false, 41),
        b"GET /rate/?uid=5&item=9&like=0&rid=41 HTTP/1.1\r\nHost: hyrec\r\n\r\n".to_vec()
    );
    let post = schedule::neighbors_request(b"xyz", 42);
    assert!(post.starts_with(b"POST /neighbors/?rid=42 HTTP/1.1\r\n"));
    assert!(post.ends_with(b"Content-Length: 3\r\n\r\nxyz"));
}
