//! The sample record produced by the PMU, and its wire encoding.

use bayesperf_events::{EventId, SourceId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// One multiplexing-window measurement of one event, as delivered through
/// the kernel↔userspace ring buffer.
///
/// Mirrors a Linux perf sample record: the accumulated `value` plus the
/// `time_enabled`/`time_running` pair used for undercount scaling
/// (`value × time_enabled / time_running`, §4). Additionally carries the
/// within-window PMI sub-sample statistics that BayesPerf's Student-t error
/// model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The measured event.
    pub event: EventId,
    /// Index of the multiplexing window this sample was taken in.
    pub window: u32,
    /// Raw accumulated count over the window (noisy).
    pub value: f64,
    /// Mean of the PMI sub-samples within the window.
    pub sub_mean: f64,
    /// Standard deviation of the PMI sub-samples.
    pub sub_sd: f64,
    /// Number of PMI sub-samples. Every read reports at least one (a
    /// plain unscaled read is `sub_n = 1` with zero deviation); a sample
    /// with none is not [well formed](Sample::is_well_formed).
    pub sub_n: u32,
    /// Ticks this event has been enabled (requested), cumulatively.
    pub time_enabled: u64,
    /// Ticks this event has actually been running on a counter.
    pub time_running: u64,
    /// The observation source that produced this sample
    /// ([`SourceId::PMU`] for counter reads; gauge/`/proc` sources tag
    /// their own id so inference picks the matching error model).
    pub source: SourceId,
}

impl Sample {
    /// True if the sample can be trusted as a measurement: it reports at
    /// least one sub-sample, its value and sub-sample moments are finite
    /// and its sub-sample spread is not negative. A corrupted counter read
    /// fails this; inference skips such a sample instead of building a
    /// likelihood from it.
    pub fn is_well_formed(&self) -> bool {
        self.sub_n >= 1
            && self.value.is_finite()
            && self.sub_mean.is_finite()
            && self.sub_sd.is_finite()
            && self.sub_sd >= 0.0
    }

    /// Linux's built-in undercount correction: scale the raw value by
    /// enabled/running time (§4). Returns 0 when the event never ran, as
    /// perf reports.
    pub fn linux_scaled(&self) -> f64 {
        if self.time_running == 0 {
            return 0.0;
        }
        self.value * self.time_enabled as f64 / self.time_running as f64
    }

    /// Serialized size in bytes (fixed-width encoding).
    pub const WIRE_SIZE: usize = 2 + 4 + 8 * 3 + 4 + 8 * 2 + 2;

    /// Encodes the sample into `buf` (fixed-width little-endian layout, as a
    /// kernel ring buffer would carry).
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(self.event.index() as u16);
        buf.put_u32_le(self.window);
        buf.put_f64_le(self.value);
        buf.put_f64_le(self.sub_mean);
        buf.put_f64_le(self.sub_sd);
        buf.put_u32_le(self.sub_n);
        buf.put_u64_le(self.time_enabled);
        buf.put_u64_le(self.time_running);
        buf.put_u16_le(self.source.index() as u16);
    }

    /// Decodes a sample previously written by [`Sample::encode`].
    ///
    /// Returns `None` if `buf` holds fewer than [`Sample::WIRE_SIZE`] bytes.
    pub fn decode(buf: &mut Bytes) -> Option<Sample> {
        if buf.remaining() < Self::WIRE_SIZE {
            return None;
        }
        Some(Sample {
            event: EventId::from_raw(buf.get_u16_le()),
            window: buf.get_u32_le(),
            value: buf.get_f64_le(),
            sub_mean: buf.get_f64_le(),
            sub_sd: buf.get_f64_le(),
            sub_n: buf.get_u32_le(),
            time_enabled: buf.get_u64_le(),
            time_running: buf.get_u64_le(),
            source: SourceId::from_raw(buf.get_u16_le()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        Sample {
            event: EventId::from_raw(7),
            window: 42,
            value: 1234.5,
            sub_mean: 308.6,
            sub_sd: 12.25,
            sub_n: 4,
            time_enabled: 100,
            time_running: 25,
            source: SourceId::PMU,
        }
    }

    #[test]
    fn linux_scaling_multiplies_by_enabled_over_running() {
        let s = sample();
        assert!((s.linux_scaled() - 1234.5 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn linux_scaling_handles_never_ran() {
        let s = Sample {
            time_running: 0,
            ..sample()
        };
        assert_eq!(s.linux_scaled(), 0.0);
    }

    #[test]
    fn well_formed_accepts_zero_spread_and_rejects_corruption() {
        let with = |f: fn(&mut Sample)| {
            let mut s = sample();
            f(&mut s);
            s.is_well_formed()
        };
        assert!(sample().is_well_formed());
        // A plain unscaled read: one sub-sample, zero deviation.
        assert!(with(|s| s.sub_sd = 0.0));
        assert!(!with(|s| s.value = f64::NAN));
        assert!(!with(|s| s.value = f64::NEG_INFINITY));
        assert!(!with(|s| s.sub_mean = f64::NAN));
        assert!(!with(|s| s.sub_sd = f64::INFINITY));
        assert!(!with(|s| s.sub_sd = -1.0));
        assert!(!with(|s| s.sub_n = 0));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let mut buf = BytesMut::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), Sample::WIRE_SIZE);
        let mut bytes = buf.freeze();
        let back = Sample::decode(&mut bytes).unwrap();
        assert_eq!(back, s);

        // Non-PMU source tags survive the wire too.
        let g = Sample {
            source: SourceId::from_raw(3),
            ..sample()
        };
        let mut buf = BytesMut::new();
        g.encode(&mut buf);
        let back = Sample::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back.source, SourceId::from_raw(3));
    }

    #[test]
    fn decode_short_buffer_is_none() {
        let mut short = Bytes::from_static(&[0u8; 10]);
        assert!(Sample::decode(&mut short).is_none());
    }
}
