//! AODV packet formats (RFC 3561 shapes, simplified) plus the
//! routing-authentication extension the paper adds for McCLS.

use mccls_sim::SimTime;

use crate::auth::Auth;
use crate::types::{NodeId, SeqNo};

/// A route request, flooded during route discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Rreq {
    /// Discovery originator.
    pub origin: NodeId,
    /// Originator's sequence number at flood time.
    pub origin_seq: SeqNo,
    /// Per-originator flood identifier (first copy wins).
    pub rreq_id: u32,
    /// Sought destination.
    pub dest: NodeId,
    /// Last known destination sequence number, if any.
    pub dest_seq: Option<SeqNo>,
    /// Hops traversed so far (mutable per hop).
    pub hop_count: u8,
    /// Flood radius set by the originator (expanding-ring search);
    /// forwarding stops once `hop_count` reaches it.
    pub ttl: u8,
    /// McCLS routing-authentication extension: the latest forwarder's
    /// signature over the packet (absent in plain AODV).
    pub auth: Option<Auth>,
}

/// A route reply, unicast back along the reverse path.
#[derive(Debug, Clone, PartialEq)]
pub struct Rrep {
    /// The discovery originator this reply travels to.
    pub origin: NodeId,
    /// The destination the route leads to.
    pub dest: NodeId,
    /// The destination's sequence number (freshness).
    pub dest_seq: SeqNo,
    /// Hops from the replier to the destination (mutable per hop).
    pub hop_count: u8,
    /// Node that generated the reply (the destination itself, an
    /// intermediate node with a fresh route — or a black hole lying).
    pub replier: NodeId,
    /// Authentication extension, as in [`Rreq`].
    pub auth: Option<Auth>,
}

/// A route error, broadcast when a link breaks.
#[derive(Debug, Clone, PartialEq)]
pub struct Rerr {
    /// Destinations now unreachable through the sender, with their last
    /// known sequence numbers.
    pub unreachable: Vec<(NodeId, SeqNo)>,
    /// Remaining propagation budget (kept small to bound RERR storms).
    pub ttl: u8,
}

/// An application data packet (CBR traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct DataPacket {
    /// Traffic source.
    pub src: NodeId,
    /// Traffic sink.
    pub dst: NodeId,
    /// Per-source packet number (for delivery accounting).
    pub seq: u64,
    /// Payload size in bytes.
    pub payload: usize,
    /// Send timestamp at the source (for end-to-end delay).
    pub sent_at: SimTime,
    /// Hops traversed so far (for the path-length statistic).
    pub hops: u8,
}

/// Any frame on the air.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Route request (broadcast).
    Rreq(Rreq),
    /// Route reply (unicast).
    Rrep(Rrep),
    /// Route error (broadcast).
    Rerr(Rerr),
    /// Application data (unicast).
    Data(DataPacket),
}

/// Fixed header overhead added to every frame (MAC + IP headers).
const LINK_OVERHEAD: usize = 44;

impl Packet {
    /// On-air frame size in bytes, driving the serialization delay.
    pub fn size_bytes(&self) -> usize {
        let body = match self {
            // RFC 3561 RREQ is 24 bytes, RREP 20, RERR 4 + 8/dest.
            Packet::Rreq(r) => 24 + r.auth.as_ref().map_or(0, Auth::overhead_bytes),
            Packet::Rrep(r) => 20 + r.auth.as_ref().map_or(0, Auth::overhead_bytes),
            Packet::Rerr(r) => 4 + 8 * r.unreachable.len(),
            Packet::Data(d) => d.payload,
        };
        LINK_OVERHEAD + body
    }
}

impl Rreq {
    /// The byte string a forwarder signs: every field a downstream node
    /// acts on, including the mutable hop count and the forwarder's own
    /// identity. A rushing attacker that re-injects the flood must
    /// produce a fresh signature over its own identity — which it
    /// cannot, lacking KGC credentials.
    pub fn auth_payload(&self, forwarder: NodeId) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(b"RREQ");
        out.extend_from_slice(&self.origin.0.to_be_bytes());
        out.extend_from_slice(&self.origin_seq.0.to_be_bytes());
        out.extend_from_slice(&self.rreq_id.to_be_bytes());
        out.extend_from_slice(&self.dest.0.to_be_bytes());
        out.extend_from_slice(&self.dest_seq.map_or(u32::MAX, |s| s.0).to_be_bytes());
        out.push(self.hop_count);
        out.push(self.ttl);
        out.extend_from_slice(&forwarder.0.to_be_bytes());
        out
    }
}

impl Rrep {
    /// The byte string a replier/forwarder signs (see
    /// [`Rreq::auth_payload`]). A black hole forging "I have a fresh
    /// route, seq+1000, one hop" must sign this claim — and cannot.
    pub fn auth_payload(&self, forwarder: NodeId) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(b"RREP");
        out.extend_from_slice(&self.origin.0.to_be_bytes());
        out.extend_from_slice(&self.dest.0.to_be_bytes());
        out.extend_from_slice(&self.dest_seq.0.to_be_bytes());
        out.push(self.hop_count);
        out.extend_from_slice(&self.replier.0.to_be_bytes());
        out.extend_from_slice(&forwarder.0.to_be_bytes());
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;

    fn sample_rreq() -> Rreq {
        Rreq {
            origin: NodeId(1),
            origin_seq: SeqNo(5),
            rreq_id: 7,
            dest: NodeId(9),
            dest_seq: Some(SeqNo(3)),
            hop_count: 2,
            ttl: 35,
            auth: None,
        }
    }

    #[test]
    fn sizes_are_plausible() {
        let rreq = Packet::Rreq(sample_rreq());
        assert_eq!(rreq.size_bytes(), 44 + 24);
        assert_eq!(sample_rreq().ttl, 35);
        let data = Packet::Data(DataPacket {
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            payload: 512,
            sent_at: SimTime::ZERO,
            hops: 0,
        });
        assert_eq!(data.size_bytes(), 44 + 512);
        let rerr = Packet::Rerr(Rerr {
            unreachable: vec![(NodeId(2), SeqNo(0))],
            ttl: 2,
        });
        assert_eq!(rerr.size_bytes(), 44 + 12);
    }

    #[test]
    fn auth_payload_binds_mutable_fields() {
        let base = sample_rreq();
        let mut hopped = base.clone();
        hopped.hop_count += 1;
        assert_ne!(base.auth_payload(NodeId(3)), hopped.auth_payload(NodeId(3)));
        assert_ne!(base.auth_payload(NodeId(3)), base.auth_payload(NodeId(4)));
    }

    #[test]
    fn rrep_auth_payload_binds_replier_claim() {
        let rrep = Rrep {
            origin: NodeId(1),
            dest: NodeId(9),
            dest_seq: SeqNo(11),
            hop_count: 1,
            replier: NodeId(9),
            auth: None,
        };
        let mut lied = rrep.clone();
        lied.dest_seq = SeqNo(1011);
        assert_ne!(rrep.auth_payload(NodeId(9)), lied.auth_payload(NodeId(9)));
    }
}
