//! Per-port switch arbitration.
//!
//! The SB7890 is modelled as one uplink and one downlink pipe *per
//! switch port*, with each machine bonding [`WireSpec::ports_for`] ports
//! (a 200 Gbps NIC gets two 100 Gbps ports, a ConnectX-4 one). Messages
//! are arbitrated in global `(depart, src, seq)` order by the runtime's
//! merge step, so reservations here are deterministic for any worker
//! count. Cut-through: a message becomes visible at the destination when
//! its downlink reservation *starts*, but the completion may not precede
//! the downlink *finish* (the full transfer must have drained).

use simnet::faults::{fault_key, FaultPlane, FaultSpec};
use simnet::resource::Pipe;
use simnet::time::Nanos;
use topology::WireSpec;

use crate::msg::NetMsg;
use nicsim::client::wire_bytes;

/// One machine's switch attachment: `ports` pipes per direction.
struct PortGroup {
    up: Vec<Pipe>,
    down: Vec<Pipe>,
}

impl PortGroup {
    fn new(ports: u32, wire: &WireSpec) -> Self {
        PortGroup {
            up: (0..ports).map(|_| Pipe::new(wire.port_bw)).collect(),
            down: (0..ports).map(|_| Pipe::new(wire.port_bw)).collect(),
        }
    }
}

/// Earliest-free port in a group; ties break towards the lowest index so
/// arbitration is deterministic.
fn pick(ports: &mut [Pipe]) -> &mut Pipe {
    let mut best = 0;
    for (i, p) in ports.iter().enumerate().skip(1) {
        if p.next_free() < ports[best].next_free() {
            best = i;
        }
    }
    &mut ports[best]
}

/// The cluster switch: per-machine bonded port groups plus the wire's
/// one-way latency.
pub struct SwitchFabric {
    groups: Vec<PortGroup>,
    latency: Nanos,
    routed: u64,
    dropped: u64,
    faults: Option<FaultPlane>,
}

/// Outcome of routing one message.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// When the destination NIC first sees the message (cut-through).
    pub arrive: Nanos,
    /// When the last byte has drained through the destination port; a
    /// completion that depends on the full payload cannot precede this.
    pub drained: Nanos,
}

impl SwitchFabric {
    /// Builds the switch for machines whose NIC line rates are
    /// `nic_bws[i]` (one entry per shard, in shard order).
    pub fn new(wire: &WireSpec, nic_bws: &[simnet::time::Bandwidth]) -> Self {
        SwitchFabric {
            groups: nic_bws
                .iter()
                .map(|bw| PortGroup::new(wire.ports_for(*bw), wire))
                .collect(),
            latency: wire.one_way_latency,
            routed: 0,
            dropped: 0,
            faults: None,
        }
    }

    /// Installs a fault schedule; inert specs install nothing (see
    /// `simnet::faults`), keeping routing byte-identical to a faultless
    /// build.
    pub fn set_faults(&mut self, spec: FaultSpec) {
        self.faults = FaultPlane::new(spec);
    }

    /// The conservative lookahead: no message can arrive earlier than
    /// `depart + one_way_latency`.
    pub fn lookahead(&self) -> Nanos {
        self.latency
    }

    /// Messages routed (delivered) so far.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Messages dropped by the fault plane so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ports bonded by shard `i` (for tests and reports).
    pub fn ports_of(&self, i: usize) -> usize {
        self.groups[i].up.len()
    }

    /// Routes one message through source uplink and destination
    /// downlink ports, returning its delivery instants — or `None` if
    /// the fault plane loses the frame. A dropped frame still burns its
    /// uplink reservation (it left the source NIC before dying) but
    /// never touches the downlink. The verdict is a pure function of
    /// `(src, seq)`, so it is identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if the message names an unknown shard.
    pub fn route(&mut self, m: &NetMsg) -> Option<Delivery> {
        let bytes = wire_bytes(m.bytes);
        let up = pick(&mut self.groups[m.src].up).reserve(m.depart, bytes);
        if let Some(plane) = self.faults.as_ref() {
            if plane.has_stochastic_faults()
                && plane.wire_verdict(fault_key(&[m.src as u64, m.seq]), 0)
            {
                self.dropped += 1;
                return None;
            }
        }
        let down = pick(&mut self.groups[m.dst].down).reserve(up.start + self.latency, bytes);
        self.routed += 1;
        Some(Delivery {
            arrive: down.start,
            drained: down.finish,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use simnet::time::Bandwidth;

    fn msg(src: usize, dst: usize, depart: u64, bytes: u64) -> NetMsg {
        NetMsg {
            src,
            dst,
            seq: 0,
            depart: Nanos::new(depart),
            bytes,
            kind: MsgKind::Response {
                stream: 0,
                thread: 0,
                posted: Nanos::ZERO,
                xid: 0,
            },
        }
    }

    fn fabric() -> SwitchFabric {
        // Shard 0: a 100 Gbps client; shard 1: a 200 Gbps server.
        SwitchFabric::new(
            &WireSpec::sb7890(),
            &[Bandwidth::gbps(100.0), Bandwidth::gbps(200.0)],
        )
    }

    #[test]
    fn port_counts_follow_nic_bandwidth() {
        let f = fabric();
        assert_eq!(f.ports_of(0), 1);
        assert_eq!(f.ports_of(1), 2);
    }

    #[test]
    fn arrival_respects_lookahead() {
        let mut f = fabric();
        let d = f.route(&msg(0, 1, 1000, 64)).expect("no faults installed");
        assert!(d.arrive >= Nanos::new(1000) + f.lookahead());
        assert!(d.drained >= d.arrive);
        assert_eq!(f.routed(), 1);
        assert_eq!(f.dropped(), 0);
    }

    #[test]
    fn dual_ports_double_downlink_capacity() {
        // Client -> server: the client's single uplink port serializes
        // the two sends, but the server's two downlink ports add no
        // queueing on top — the second arrival lands exactly one port
        // service time (== `a.drained - a.arrive`) after the first.
        let mut f = fabric();
        let a = f.route(&msg(0, 1, 0, 4096)).unwrap();
        let b = f.route(&msg(0, 1, 0, 4096)).unwrap();
        assert_eq!(b.arrive, a.drained, "dual downlink must not queue");

        // Server -> client: both uplink ports fire at t=0; the client's
        // single downlink port is what serializes the arrivals.
        let mut g = fabric();
        let c = g.route(&msg(1, 0, 0, 4096)).unwrap();
        let d = g.route(&msg(1, 0, 0, 4096)).unwrap();
        assert_eq!(c.arrive, g.lookahead());
        assert_eq!(d.arrive, c.drained, "single downlink must serialize");
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let mut a = fabric();
        let mut b = fabric();
        for i in 0..100u64 {
            let m = msg((i % 2) as usize, 1 - (i % 2) as usize, i * 37, 64 + i);
            let da = a.route(&m).unwrap();
            let db = b.route(&m).unwrap();
            assert_eq!(da.arrive, db.arrive);
            assert_eq!(da.drained, db.drained);
        }
    }

    #[test]
    fn certain_loss_drops_every_frame_and_burns_uplink_only() {
        use simnet::faults::FaultSpec;
        let mut f = fabric();
        f.set_faults(FaultSpec::none().with_wire_loss(1.0));
        assert!(f.route(&msg(0, 1, 0, 4096)).is_none());
        assert_eq!(f.dropped(), 1);
        assert_eq!(f.routed(), 0);
        // The dropped frame consumed the uplink: a healthy follow-up on
        // the same port starts after the dead frame has serialized out.
        f.set_faults(FaultSpec::none());
        let d = f.route(&msg(0, 1, 0, 4096)).unwrap();
        assert!(d.arrive > f.lookahead(), "uplink not burned: {:?}", d);
    }

    #[test]
    fn loss_verdicts_depend_on_seq() {
        use simnet::faults::FaultSpec;
        let mut f = fabric();
        f.set_faults(FaultSpec::none().with_wire_loss(0.5).with_seed(7));
        let outcomes: Vec<bool> = (0..64)
            .map(|s| {
                let mut m = msg(0, 1, s * 1000, 64);
                m.seq = s;
                f.route(&m).is_some()
            })
            .collect();
        assert!(outcomes.iter().any(|&d| d));
        assert!(outcomes.iter().any(|&d| !d));
    }
}
