//! Message-passing costs: send/recv on the cache-line channel, a
//! two-thread ping-pong (the native analogue of Figure 9), a multi-frame
//! ring echo frame by frame and as bursts, and the wire codec's share of
//! a multi-frame round trip.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ssync_mp::channel::channel;
use ssync_mp::{
    ring_channel, Message, MsgReceiver, RecvError, RingReceiver, RingSender, MSG_WORDS,
};
use ssync_srv::wire::{encode_set, encode_value};
use ssync_srv::{Request, Response};

fn bench_send_recv_same_thread(c: &mut Criterion) {
    let (tx, rx) = channel();
    c.bench_function("channel_send_recv_local", |b| {
        b.iter(|| {
            tx.send([1, 2, 3, 4, 5, 6, 7]);
            rx.recv()
        })
    });
}

fn bench_ping_pong_threads(c: &mut Criterion) {
    c.bench_function("channel_round_trip_threads", |b| {
        let (tx_req, rx_req) = channel();
        let (tx_rep, rx_rep) = channel();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let echo = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
                if let Some(m) = rx_req.try_recv() {
                    tx_rep.send(m);
                } else {
                    std::thread::yield_now();
                }
            }
        });
        b.iter(|| {
            tx_req.send([7; 7]);
            rx_rep.recv()
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        echo.join().unwrap();
    });
}

/// A two-thread echo of an `n`-frame message over a pair of depth-64
/// rings (`benchmark/`'s serving depth): 3, 11 and 19 frames are a 128 B,
/// a 576 B and a 1 KiB value. `per_frame` sends and receives one frame
/// at a time on both sides; `burst` sends with `send_all` and receives
/// with `recv_burst_connected` — one space check per run, one stamp
/// wait and one hand-back per message. The in-repo reading of the rung
/// `benchmark/`'s one-frame-at-a-time echo cannot see.
fn bench_ring_burst_echo(c: &mut Criterion) {
    fn send(tx: &RingSender, frames: &[Message], burst: bool) {
        if burst {
            tx.send_all(frames);
        } else {
            frames.iter().for_each(|&f| tx.send(f));
        }
    }
    fn recv(
        rx: &RingReceiver,
        n: usize,
        out: &mut Vec<Message>,
        burst: bool,
    ) -> Result<(), RecvError> {
        if burst {
            return rx.recv_burst_connected(n, out);
        }
        out.clear();
        for _ in 0..n {
            out.push(rx.recv_connected()?);
        }
        Ok(())
    }
    let mut group = c.benchmark_group("ring_burst");
    for n in [3usize, 11, 19] {
        let message: Vec<Message> = (0..n as u64).map(|i| [i; MSG_WORDS]).collect();
        for burst in [false, true] {
            let name = format!("{}/{n}", if burst { "burst" } else { "per_frame" });
            group.bench_function(&name, |b| {
                let (request_tx, request_rx) = ring_channel(64);
                let (reply_tx, reply_rx) = ring_channel(64);
                let echo = std::thread::spawn(move || {
                    let mut frames = Vec::with_capacity(n);
                    // Ends when the measuring side drops its sender.
                    while recv(&request_rx, n, &mut frames, burst).is_ok() {
                        send(&reply_tx, &frames, burst);
                    }
                });
                let mut back = Vec::with_capacity(n);
                b.iter(|| {
                    send(&request_tx, &message, burst);
                    recv(&reply_rx, n, &mut back, burst).unwrap();
                    black_box(&back);
                });
                drop(request_tx);
                echo.join().unwrap();
            });
        }
    }
    group.finish();
}

/// Encode + decode of the two value carriers a read/write round trip
/// pays for, per value size: `owned` builds the enum first (a client's
/// `Set`, a relayed `Value`), `borrowed` encodes from bytes the sender
/// already holds (a node's read reply). The single-thread reading of
/// the `srv.wire.*_codec_ns` rungs `benchmark/` reports from outside.
fn bench_wire_value_codec(c: &mut Criterion) {
    fn decode_request(frames: &[Message]) -> Request {
        let mut rest = frames[1..].iter();
        Request::decode(frames[0], || *rest.next().expect("continuation")).expect("own frames")
    }
    fn decode_response(frames: &[Message]) -> Response {
        let mut rest = frames[1..].iter();
        Response::decode(frames[0], || *rest.next().expect("continuation")).expect("own frames")
    }
    let mut group = c.benchmark_group("wire_value_codec");
    let mut frames: Vec<Message> = Vec::new();
    for len in [16usize, 96, 576, 1024] {
        let value: Vec<u8> = (0..len).map(|i| i as u8).collect();
        group.bench_function(&format!("set_owned/{len}"), |b| {
            b.iter(|| {
                let value = black_box(&value).clone();
                Request::Set { key: 7, value }.encode_into(&mut frames);
                decode_request(&frames)
            })
        });
        group.bench_function(&format!("set_borrowed/{len}"), |b| {
            b.iter(|| {
                encode_set(7, black_box(&value), &mut frames);
                decode_request(&frames)
            })
        });
        group.bench_function(&format!("value_owned/{len}"), |b| {
            b.iter(|| {
                let value = black_box(&value).clone();
                Response::Value { version: 9, value }.encode_into(&mut frames);
                decode_response(&frames)
            })
        });
        group.bench_function(&format!("value_borrowed/{len}"), |b| {
            b.iter(|| {
                encode_value(9, black_box(&value), &mut frames);
                decode_response(&frames)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(700));
    targets = bench_send_recv_same_thread, bench_ping_pong_threads, bench_ring_burst_echo,
        bench_wire_value_codec
}
criterion_main!(benches);
