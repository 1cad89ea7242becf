//! Message-passing benchmarks: Figures 9 and 10.
//!
//! * [`ping_sender`] / [`ping_receiver`] — one-to-one communication. The
//!   sender stamps each message with the send time, so the receiver's
//!   samples are one-way latencies; in round-trip mode the sender also
//!   samples the full echo time.
//! * [`mp_client`] / [`polling_server`] / [`hardware_server`] —
//!   client-server: one server polls all
//!   client request channels round-robin and (in round-trip mode)
//!   responds on per-client reply channels. Client ops count throughput.
//!
//! Both work over coherence-based [`SsmpChannel`]s on every platform and
//! over [`HwChannel`]s on the Tilera.

use ssync_sim::Cpu;

use crate::mp::{HwChannel, SsmpChannel};

/// A channel endpoint usable by the benchmarks: either `libssmp` over
/// coherence or Tilera hardware messaging.
#[derive(Clone)]
pub enum Chan {
    /// Coherence-based cache-line channel.
    Ssmp(SsmpChannel),
    /// Hardware (iMesh) channel.
    Hw(HwChannel),
}

impl Chan {
    async fn send(&self, cpu: &Cpu, payload: u64) {
        match self {
            Chan::Ssmp(c) => c.send(cpu, payload).await,
            Chan::Hw(c) => c.send(cpu, payload).await,
        }
    }

    /// Sends a message carrying the issue time (see
    /// [`SsmpChannel::send_stamped`]); hardware sends never wait, so the
    /// current time is the issue time for them.
    async fn send_stamped(&self, cpu: &Cpu) {
        match self {
            Chan::Ssmp(c) => c.send_stamped(cpu).await,
            Chan::Hw(c) => c.send(cpu, cpu.now() + 1).await,
        }
    }

    async fn recv(&self, cpu: &Cpu) -> u64 {
        match self {
            Chan::Ssmp(c) => c.recv(cpu).await,
            Chan::Hw(c) => c.recv(cpu).await,
        }
    }
}

/// One-to-one sender: streams messages stamped with the send time; in
/// round-trip mode (`back` given) waits for each echo and samples the
/// round trip.
pub async fn ping_sender(cpu: Cpu, out: Chan, back: Option<Chan>) {
    loop {
        let t0 = cpu.now();
        out.send_stamped(&cpu).await;
        if let Some(back) = &back {
            back.recv(&cpu).await;
            cpu.record_sample(cpu.now() - t0);
        }
        cpu.complete_op();
    }
}

/// One-to-one receiver: drains messages, sampling one-way latency from
/// the embedded timestamps; echoes when given a `reply` channel.
pub async fn ping_receiver(cpu: Cpu, input: Chan, reply: Option<Chan>) {
    loop {
        let stamp = input.recv(&cpu).await.saturating_sub(1);
        cpu.record_sample(cpu.now().saturating_sub(stamp));
        cpu.complete_op();
        if let Some(reply) = &reply {
            reply.send(&cpu, cpu.now() + 1).await;
        }
    }
}

/// Client of the client-server benchmark: one-way requests, or round
/// trips when given a `reply` channel.
pub async fn mp_client(cpu: Cpu, request: Chan, reply: Option<Chan>) {
    loop {
        request.send(&cpu, cpu.tid() as u64 + 1).await;
        if let Some(reply) = &reply {
            reply.recv(&cpu).await;
        }
        cpu.complete_op();
    }
}

/// The coherence-mode server: polls client request channels
/// round-robin and, given `replies`, answers `requests[i]` on
/// `replies[i]`.
pub async fn polling_server(cpu: Cpu, requests: Vec<SsmpChannel>, replies: Option<Vec<Chan>>) {
    for current in (0..requests.len()).cycle() {
        if requests[current].try_recv(&cpu).await.is_none() {
            // Nothing on that channel: scan on.
            cpu.pause(2).await;
            continue;
        }
        cpu.complete_op();
        respond(&cpu, &replies, current).await;
    }
}

/// The hardware-mode server (Tilera): blocking receive-from-any;
/// `replies` are indexed by the sender tid carried in the payload.
pub async fn hardware_server(cpu: Cpu, recv: HwChannel, replies: Option<Vec<Chan>>) {
    loop {
        let current = (recv.recv(&cpu).await as usize).saturating_sub(1);
        cpu.complete_op();
        respond(&cpu, &replies, current).await;
    }
}

/// A server's answer to client `current`, in round-trip mode.
async fn respond(cpu: &Cpu, replies: &Option<Vec<Chan>>, current: usize) {
    if let Some(replies) = replies {
        replies[current % replies.len()]
            .send(cpu, cpu.now() + 1)
            .await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_core::Platform;
    use ssync_sim::Sim;

    fn one_way_latency(platform: Platform, receiver_core: usize) -> f64 {
        let mut sim = Sim::new(platform, 9);
        let ch = SsmpChannel::new(&mut sim, receiver_core);
        let tx = Chan::Ssmp(ch.clone());
        sim.spawn_on_core(0, |cpu| ping_sender(cpu, tx, None));
        let rx = sim.spawn_on_core(receiver_core, |cpu| {
            ping_receiver(cpu, Chan::Ssmp(ch), None)
        });
        sim.run_until(300_000);
        let s = sim.samples(rx);
        assert!(!s.is_empty());
        s.iter().sum::<u64>() as f64 / s.len() as f64
    }

    #[test]
    fn one_way_costs_about_two_transfers() {
        // Xeon same-socket: a cache-line transfer is ~100-120 cycles, so
        // one-way should land in the few-hundreds (paper: 214 same die).
        let lat = one_way_latency(Platform::Xeon, 5);
        assert!(lat > 80.0 && lat < 700.0, "lat={lat:.0}");
    }

    #[test]
    fn one_way_latency_grows_across_sockets() {
        let near = one_way_latency(Platform::Xeon, 5);
        let far = one_way_latency(Platform::Xeon, 35);
        assert!(far > 1.5 * near, "near={near:.0} far={far:.0}");
    }

    #[test]
    fn round_trip_roughly_doubles_one_way() {
        let mut sim = Sim::new(Platform::Opteron, 9);
        let req = SsmpChannel::new(&mut sim, 6);
        let rep = SsmpChannel::new(&mut sim, 0);
        let (out, back) = (Chan::Ssmp(req.clone()), Some(Chan::Ssmp(rep.clone())));
        let tx = sim.spawn_on_core(0, |cpu| ping_sender(cpu, out, back));
        sim.spawn_on_core(6, |cpu| {
            ping_receiver(cpu, Chan::Ssmp(req), Some(Chan::Ssmp(rep)))
        });
        sim.run_until(400_000);
        let rt = sim.samples(tx).iter().sum::<u64>() as f64 / sim.samples(tx).len() as f64;
        let ow = one_way_latency(Platform::Opteron, 6);
        assert!(rt > 1.4 * ow && rt < 5.0 * ow, "rt={rt:.0} ow={ow:.0}");
    }

    #[test]
    fn client_server_round_trip_works() {
        let mut sim = Sim::new(Platform::Niagara, 9);
        let n_clients = 4;
        let server_core = 0;
        let mut requests = Vec::new();
        let mut replies = Vec::new();
        for i in 0..n_clients {
            requests.push(SsmpChannel::new(&mut sim, server_core));
            replies.push(Chan::Ssmp(SsmpChannel::new(&mut sim, 8 * (i + 1))));
        }
        let (reqs, reps) = (requests.clone(), Some(replies.clone()));
        sim.spawn_on_core(server_core, |cpu| polling_server(cpu, reqs, reps));
        // The polling server replies on replies[i] for requests[i], so
        // client i listens on its own index.
        for i in 0..n_clients {
            let (request, reply) = (Chan::Ssmp(requests[i].clone()), Some(replies[i].clone()));
            sim.spawn_on_core(8 * (i + 1), |cpu| mp_client(cpu, request, reply));
        }
        sim.run_until(500_000);
        assert!(sim.total_ops() > 10, "ops={}", sim.total_ops());
    }

    #[test]
    fn tilera_hardware_beats_ssmp() {
        // One-way ssmp on Tilera.
        let ssmp = one_way_latency(Platform::Tilera, 7);
        // One-way hardware.
        let mut sim = Sim::new(Platform::Tilera, 9);
        let hw = HwChannel::new(1);
        let tx = Chan::Hw(hw.clone());
        sim.spawn_on_core(0, |cpu| ping_sender(cpu, tx, None));
        let rx = sim.spawn_on_core(7, |cpu| ping_receiver(cpu, Chan::Hw(hw), None));
        sim.run_until(200_000);
        let s = sim.samples(rx);
        let hw_lat = s.iter().sum::<u64>() as f64 / s.len() as f64;
        assert!(hw_lat < ssmp, "hw={hw_lat:.0} ssmp={ssmp:.0}");
    }
}
