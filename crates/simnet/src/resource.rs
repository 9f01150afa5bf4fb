//! Time-reservation resource primitives.
//!
//! The simulators in this workspace model hardware blocks (NIC processing
//! units, PCIe link directions, DRAM channels, CPU cores) as *servers* on
//! which requests reserve busy time in event order. Queueing, pipelining
//! and interference then emerge from the reservations without simulating
//! every packet as a separate event.

use std::collections::VecDeque;

use crate::time::{Bandwidth, Nanos};

/// The outcome of reserving time on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually started serving the request.
    pub start: Nanos,
    /// When the resource finishes serving the request.
    pub finish: Nanos,
}

impl Reservation {
    /// Queueing delay experienced before service started.
    pub fn wait(&self, arrival: Nanos) -> Nanos {
        self.start.saturating_sub(arrival)
    }
}

/// A single FIFO server.
///
/// # Examples
///
/// ```
/// use simnet::resource::Server;
/// use simnet::time::Nanos;
///
/// let mut s = Server::new();
/// let r1 = s.reserve(Nanos::new(0), Nanos::new(10));
/// let r2 = s.reserve(Nanos::new(5), Nanos::new(10));
/// assert_eq!(r1.finish, Nanos::new(10));
/// assert_eq!(r2.start, Nanos::new(10)); // queued behind r1
/// assert_eq!(r2.finish, Nanos::new(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Server {
    next_free: Nanos,
    busy: Nanos,
    served: u64,
}

impl Server {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `service` time starting no earlier than `arrival`.
    pub fn reserve(&mut self, arrival: Nanos, service: Nanos) -> Reservation {
        let start = arrival.max(self.next_free);
        let finish = start + service;
        self.next_free = finish;
        self.busy += service;
        self.served += 1;
        Reservation { start, finish }
    }

    /// Reserves `n` requests of `service` each, all arriving at
    /// `arrival`, in one step. The server ends exactly as after `n`
    /// back-to-back [`Server::reserve`] calls: the requests run end to
    /// end from `max(arrival, next_free)`, and busy time and the served
    /// count grow by `n · service` and `n`. Returns the first request's
    /// start and the last one's finish.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, leaving the server untouched.
    #[inline]
    pub fn reserve_run(&mut self, arrival: Nanos, service: Nanos, n: u64) -> Reservation {
        assert!(n > 0, "a reservation run needs at least one request");
        let start = arrival.max(self.next_free);
        let total = service * n;
        let finish = start + total;
        self.next_free = finish;
        self.busy += total;
        self.served += n;
        Reservation { start, finish }
    }

    /// The earliest instant a new request could begin service.
    pub fn next_free(&self) -> Nanos {
        self.next_free
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// A pool of `k` identical servers with earliest-free assignment.
///
/// Models pipelined processing units (e.g. NIC PUs): up to `k` requests are
/// in flight at once; additional ones queue for the first unit to free up.
///
/// The units' next-free times are kept in ascending order: a reservation
/// takes the earliest from the front and files its finish after the
/// last time not later, which on a busy pool is nearly always the back.
#[derive(Debug, Clone)]
pub struct MultiServer {
    /// Next-free time of every unit, ascending.
    free_times: VecDeque<Nanos>,
    servers: usize,
    busy: Nanos,
    served: u64,
}

impl MultiServer {
    /// Creates a pool of `servers` idle units.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a server pool needs at least one unit");
        MultiServer {
            free_times: vec![Nanos::ZERO; servers].into(),
            servers,
            busy: Nanos::ZERO,
            served: 0,
        }
    }

    /// Number of units in the pool.
    pub fn units(&self) -> usize {
        self.servers
    }

    /// Reserves `service` time on the earliest-free unit.
    pub fn reserve(&mut self, arrival: Nanos, service: Nanos) -> Reservation {
        let free = self.free_times.pop_front().expect("pool is never empty");
        let start = arrival.max(free);
        let finish = start + service;
        let mut i = self.free_times.len();
        while i > 0 && self.free_times[i - 1] > finish {
            i -= 1;
        }
        self.free_times.insert(i, finish);
        self.busy += service;
        self.served += 1;
        Reservation { start, finish }
    }

    /// The earliest instant any unit becomes free.
    pub fn earliest_free(&self) -> Nanos {
        *self.free_times.front().expect("pool is never empty")
    }

    /// Total busy time across all units.
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Pool utilization over `[0, horizon]` (1.0 = all units always busy).
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / (horizon.as_nanos() as f64 * self.servers as f64)
    }
}

/// A fluid pipe: a FIFO resource that serves bytes at a fixed rate.
///
/// This is the workhorse model for a PCIe link direction, a network wire
/// or a DRAM channel bus: pushing `bytes` occupies the pipe for
/// `bytes / bandwidth`. Callers fold per-packet costs (TLP and frame
/// headers) into the bytes they reserve.
#[derive(Debug, Clone)]
pub struct Pipe {
    bandwidth: Bandwidth,
    server: Server,
    /// Service-time multiplier for degraded operation (fault injection:
    /// a link retrained to a lower PCIe generation/width). 1.0 = healthy.
    derate: f64,
    /// The last reservation's size and service time: a pipe mostly
    /// carries one size, and a repeat skips the float division.
    /// Cleared when [`Pipe::set_derate`] changes the derate.
    memo: Option<(u64, Nanos)>,
}

impl Pipe {
    /// Creates a pipe limited by `bandwidth`.
    pub fn new(bandwidth: Bandwidth) -> Self {
        Pipe {
            bandwidth,
            server: Server::new(),
            derate: 1.0,
            memo: None,
        }
    }

    /// Sets the degradation multiplier: subsequent reservations take
    /// `factor` times as long (`factor < 1` is clamped to healthy).
    /// Costs a single comparison per reservation when healthy.
    pub fn set_derate(&mut self, factor: f64) {
        let derate = factor.max(1.0);
        if derate != self.derate {
            self.derate = derate;
            self.memo = None;
        }
    }

    /// Service time for a transfer of `bytes`, without reserving it.
    pub fn service_time(&self, bytes: u64) -> Nanos {
        let t = if self.bandwidth.is_zero() {
            Nanos::ZERO
        } else {
            self.bandwidth.transfer_time(bytes)
        };
        if self.derate > 1.0 {
            Nanos::from_nanos_f64(t.as_nanos() as f64 * self.derate)
        } else {
            t
        }
    }

    /// Reserves the pipe for a transfer of `bytes`.
    pub fn reserve(&mut self, arrival: Nanos, bytes: u64) -> Reservation {
        let service = match self.memo {
            Some((memo_bytes, service)) if memo_bytes == bytes => service,
            _ => {
                let service = self.service_time(bytes);
                self.memo = Some((bytes, service));
                service
            }
        };
        self.server.reserve(arrival, service)
    }

    /// The earliest instant a new transfer could begin.
    pub fn next_free(&self) -> Nanos {
        self.server.next_free()
    }

    /// Total busy (serving) time accumulated.
    pub fn busy_time(&self) -> Nanos {
        self.server.busy_time()
    }
}

/// A full-duplex link: two independent [`Pipe`]s, one per direction.
///
/// Opposite-direction transfers do not contend, which is exactly the
/// mechanism behind the paper's Figure 5 (READ+WRITE reaching ~2x the
/// unidirectional limit).
#[derive(Debug, Clone)]
pub struct DuplexPipe {
    /// Forward direction (conventionally: towards the device/host).
    pub fwd: Pipe,
    /// Reverse direction.
    pub rev: Pipe,
}

/// Direction selector for a [`DuplexPipe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// The forward direction.
    Fwd,
    /// The reverse direction.
    Rev,
}

impl DuplexPipe {
    /// Creates a symmetric duplex link.
    pub fn new(bandwidth: Bandwidth) -> Self {
        DuplexPipe {
            fwd: Pipe::new(bandwidth),
            rev: Pipe::new(bandwidth),
        }
    }

    /// The pipe for `dir`.
    pub fn dir(&mut self, dir: Dir) -> &mut Pipe {
        match dir {
            Dir::Fwd => &mut self.fwd,
            Dir::Rev => &mut self.rev,
        }
    }

    /// Reserves a transfer in direction `dir`.
    pub fn reserve(&mut self, dir: Dir, arrival: Nanos, bytes: u64) -> Reservation {
        self.dir(dir).reserve(arrival, bytes)
    }

    /// Sets the degradation multiplier on both directions (fault
    /// injection: link retraining affects the whole link).
    pub fn set_derate(&mut self, factor: f64) {
        self.fwd.set_derate(factor);
        self.rev.set_derate(factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_fifo_queueing() {
        let mut s = Server::new();
        let r1 = s.reserve(Nanos::new(0), Nanos::new(100));
        let r2 = s.reserve(Nanos::new(10), Nanos::new(100));
        let r3 = s.reserve(Nanos::new(500), Nanos::new(100));
        assert_eq!(r1.start, Nanos::ZERO);
        assert_eq!(r2.start, Nanos::new(100));
        assert_eq!(r2.wait(Nanos::new(10)), Nanos::new(90));
        // r3 arrives after the server idles: no wait.
        assert_eq!(r3.start, Nanos::new(500));
        assert_eq!(s.served(), 3);
        assert_eq!(s.busy_time(), Nanos::new(300));
    }

    #[test]
    fn reserve_run_matches_back_to_back_reserves() {
        crate::prop::check("reserve_run_matches_back_to_back_reserves", |g| {
            let mut run = Server::new();
            for _ in 0..g.usize(0..8) {
                run.reserve(Nanos::new(g.u64(0..1_000)), Nanos::new(g.u64(0..100)));
            }
            let mut each = run.clone();
            let (arrival, service) = (Nanos::new(g.u64(0..1_500)), Nanos::new(g.u64(0..50)));
            let n = g.u64(1..64);
            let got = run.reserve_run(arrival, service, n);
            let first = each.reserve(arrival, service);
            let mut last = first;
            for _ in 1..n {
                last = each.reserve(arrival, service);
            }
            crate::prop_assert_eq!((got.start, got.finish), (first.start, last.finish));
            crate::prop_assert_eq!(run.next_free(), each.next_free());
            crate::prop_assert_eq!(run.busy_time(), each.busy_time());
            crate::prop_assert_eq!(run.served(), each.served());
            Ok(())
        });
    }

    #[test]
    fn empty_reserve_run_panics_and_leaves_the_server() {
        let mut s = Server::new();
        s.reserve(Nanos::new(3), Nanos::new(7));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.reserve_run(Nanos::ZERO, Nanos::new(5), 0)
        }))
        .expect_err("n = 0 must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(msg, Some("a reservation run needs at least one request"));
        assert_eq!(s.next_free(), Nanos::new(10));
        assert_eq!((s.busy_time(), s.served()), (Nanos::new(7), 1));
    }

    #[test]
    fn multiserver_parallelism() {
        let mut m = MultiServer::new(2);
        let r1 = m.reserve(Nanos::new(0), Nanos::new(100));
        let r2 = m.reserve(Nanos::new(0), Nanos::new(100));
        let r3 = m.reserve(Nanos::new(0), Nanos::new(100));
        // Two run in parallel, the third queues.
        assert_eq!(r1.start, Nanos::ZERO);
        assert_eq!(r2.start, Nanos::ZERO);
        assert_eq!(r3.start, Nanos::new(100));
        assert_eq!(m.units(), 2);
    }

    #[test]
    fn multiserver_earliest_free_tracks_heap() {
        let mut m = MultiServer::new(2);
        m.reserve(Nanos::ZERO, Nanos::new(50));
        assert_eq!(m.earliest_free(), Nanos::ZERO);
        m.reserve(Nanos::ZERO, Nanos::new(80));
        assert_eq!(m.earliest_free(), Nanos::new(50));
    }

    /// The ascending deque against the min-heap it replaced, on pools of
    /// 1 to 400 units with arrivals that sometimes step back and services
    /// that are zero, short or long: every reservation, `earliest_free`,
    /// the busy time and the served count must match.
    #[test]
    fn multiserver_matches_heap_model() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        crate::prop::check("multiserver_matches_heap_model", |g| {
            let units = if g.bool() {
                g.usize(1..9)
            } else {
                g.usize(1..401)
            };
            let mut pool = MultiServer::new(units);
            let mut heap: BinaryHeap<Reverse<Nanos>> = vec![Reverse(Nanos::ZERO); units].into();
            let (mut busy, mut served) = (Nanos::ZERO, 0u64);
            let mut clock = 0u64;
            for _ in 0..g.usize(1..2_000) {
                clock = if g.f64_unit() < 0.2 {
                    clock.saturating_sub(g.u64(0..5_000))
                } else {
                    clock + g.u64(0..200)
                };
                let service = match g.u32(0..4) {
                    0 => 0,
                    1 => g.u64(0..100_000),
                    _ => g.u64(0..500),
                };
                let (arrival, service) = (Nanos::new(clock), Nanos::new(service));
                let got = pool.reserve(arrival, service);
                let Reverse(free) = heap.pop().expect("pool is never empty");
                let start = arrival.max(free);
                heap.push(Reverse(start + service));
                busy += service;
                served += 1;
                crate::prop_assert_eq!((got.start, got.finish), (start, start + service));
                crate::prop_assert_eq!(pool.earliest_free(), heap.peek().expect("non-empty").0);
            }
            crate::prop_assert_eq!((pool.busy_time(), pool.served()), (busy, served));
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn multiserver_zero_units_panics() {
        let _ = MultiServer::new(0);
    }

    #[test]
    fn pipe_byte_limit() {
        // 1 GB/s = 1 byte/ns.
        let mut p = Pipe::new(Bandwidth::gigabytes_per_sec(1.0));
        let r = p.reserve(Nanos::ZERO, 1000);
        assert_eq!(r.finish, Nanos::new(1000));
    }

    #[test]
    fn duplex_directions_do_not_contend() {
        let mut d = DuplexPipe::new(Bandwidth::gigabytes_per_sec(1.0));
        let f = d.reserve(Dir::Fwd, Nanos::ZERO, 1000);
        let r = d.reserve(Dir::Rev, Nanos::ZERO, 1000);
        assert_eq!(f.start, Nanos::ZERO);
        assert_eq!(r.start, Nanos::ZERO);
        // Same direction would have queued:
        let f2 = d.reserve(Dir::Fwd, Nanos::ZERO, 1000);
        assert_eq!(f2.start, Nanos::new(1000));
    }

    /// A memoized pipe against a server charged `service_time` afresh on
    /// every reservation, over repeated and changing sizes with derate
    /// changes in between.
    #[test]
    fn pipe_memo_matches_uncached_service() {
        crate::prop::check("pipe_memo_matches_uncached_service", |g| {
            let bw = Bandwidth::gigabytes_per_sec(g.u64(1..200) as f64 / 8.0);
            let mut pipe = Pipe::new(bw);
            let mut fresh = Pipe::new(bw);
            let mut server = Server::new();
            let sizes = [0, 1, 64, 4096, g.u64(1..1 << 20)];
            for _ in 0..g.usize(1..512) {
                if g.f64_unit() < 0.05 {
                    let factor = [1.0, 0.5, 2.5, 4.0, 12.8][g.usize(0..5)];
                    pipe.set_derate(factor);
                    fresh.set_derate(factor);
                }
                let bytes = sizes[g.usize(0..sizes.len())];
                let arrival = Nanos::new(g.u64(0..1_000_000));
                let want = server.reserve(arrival, fresh.service_time(bytes));
                crate::prop_assert_eq!(pipe.reserve(arrival, bytes), want, "{bytes} B");
            }
            crate::prop_assert_eq!(pipe.busy_time(), server.busy_time());
            crate::prop_assert_eq!(pipe.next_free(), server.next_free());
            Ok(())
        });
    }

    #[test]
    fn derate_scales_service_and_resets() {
        let mut p = Pipe::new(Bandwidth::gigabytes_per_sec(1.0));
        assert_eq!(p.service_time(1000), Nanos::new(1000));
        p.set_derate(12.8);
        assert_eq!(p.service_time(1000), Nanos::new(12800));
        // Sub-1.0 factors clamp to healthy.
        p.set_derate(0.5);
        assert_eq!(p.service_time(1000), Nanos::new(1000));
    }
}
