//! Columnar telemetry store: the struct-of-arrays data plane.
//!
//! The offline pipeline is a bulk pass over huge, homogeneous, time-ordered
//! record streams — layout, not logic, dominates its cost. This module stores
//! each fixed-width record family as a [`Column`]: a sorted timestamp vector
//! plus a parallel payload vector. BLE scans are ragged (a variable number of
//! beacon hits each), so they live in a [`ScanColumn`]: timestamps, `n + 1`
//! CSR offsets and one flat hit array per store, with no allocation per scan.
//! Consumers borrow [`TelemetryView`]s — `Copy` bundles of slices — and
//! obtain time windows by binary search over the timestamp column instead of
//! filtering clones.
//!
//! The store is the only recorded form of a badge's span: the recorder
//! appends straight into it, and the analysis engine, ingest service and
//! exports all read it. Every column stays sorted by timestamp (the recorder
//! emits every stream in time order except mirrored IR contacts, which the
//! stable sorted insert repairs).

use crate::records::{
    AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs, SyncSample,
};
use ares_habitat::beacons::BeaconId;
use ares_simkit::time::SimTime;
use serde::{Deserialize, Serialize};

/// Fixed-width lane helpers for batched struct-of-arrays kernels over
/// columns (re-exported from `ares_simkit` so column consumers need no extra
/// dependency).
pub use ares_simkit::lanes;

/// [`AudioFrame`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AudioPayload {
    /// A-weighted level over the frame (dB SPL).
    pub level_db: f64,
    /// Whether voice-band energy dominated the frame.
    pub voiced: bool,
    /// Estimated fundamental frequency when voiced (Hz).
    pub f0_hz: Option<f64>,
}

/// [`ImuSample`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuPayload {
    /// Variance of acceleration magnitude over the window ((m/s²)²).
    pub accel_var: f64,
    /// Mean acceleration magnitude (m/s²).
    pub accel_mean: f64,
    /// Dominant step-band frequency, if any (Hz).
    pub step_hz: Option<f64>,
}

/// [`EnvSample`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvPayload {
    /// Temperature (°C).
    pub temperature_c: f64,
    /// Pressure (hPa).
    pub pressure_hpa: f64,
    /// Illuminance (lux).
    pub light_lux: f64,
}

/// [`ProximityObs`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProximityPayload {
    /// The badge heard.
    pub other: BadgeId,
    /// Received signal strength (dBm).
    pub rssi: f64,
}

/// [`IrContact`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrPayload {
    /// The facing badge.
    pub other: BadgeId,
}

/// [`SyncSample`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncPayload {
    /// The reference badge's local time in the exchange.
    pub t_reference: SimTime,
}

/// One record family in struct-of-arrays layout: a timestamp column kept
/// sorted ascending, plus a parallel payload column.
///
/// Appends that arrive in time order (the overwhelmingly common case — badge
/// clocks are monotonic) are O(1); out-of-order appends fall back to a stable
/// sorted insert so equal timestamps preserve arrival order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column<T> {
    ts: Vec<SimTime>,
    payloads: Vec<T>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column {
            ts: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

impl<T> Column<T> {
    /// An empty column.
    #[must_use]
    pub fn new() -> Self {
        Column::default()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the column holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends a record, maintaining the sorted-timestamp invariant.
    pub fn push(&mut self, t: SimTime, payload: T) {
        if self.ts.last().is_none_or(|&last| last <= t) {
            self.ts.push(t);
            self.payloads.push(payload);
        } else {
            let i = self.ts.partition_point(|&x| x <= t);
            self.ts.insert(i, t);
            self.payloads.insert(i, payload);
        }
    }

    /// Appends another column's records after this one's, with exactly the
    /// result of [`push`](Self::push)ing them one by one: when `other` starts
    /// at or after this column's last timestamp both vectors are extended in
    /// one step (or, into an empty column, moved without a copy), otherwise
    /// each record takes the stable sorted insert.
    pub fn append(&mut self, other: Column<T>) {
        match (self.ts.last(), other.ts.first()) {
            (None, _) => *self = other,
            (Some(&last), Some(&first)) if first < last => {
                for (t, p) in other.ts.into_iter().zip(other.payloads) {
                    self.push(t, p);
                }
            }
            _ => {
                self.ts.extend(other.ts);
                self.payloads.extend(other.payloads);
            }
        }
    }

    /// Borrows the whole column.
    #[must_use]
    pub fn view(&self) -> ColumnView<'_, T> {
        ColumnView {
            ts: &self.ts,
            payloads: &self.payloads,
        }
    }

    /// Borrows the records with `start <= t < end`.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> ColumnView<'_, T> {
        self.view().window(start, end)
    }
}

/// A borrowed slice pair over a [`Column`]: zero-copy, `Copy`, and cheap to
/// re-window.
#[derive(Debug)]
pub struct ColumnView<'a, T> {
    ts: &'a [SimTime],
    payloads: &'a [T],
}

impl<T> Clone for ColumnView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ColumnView<'_, T> {}

impl<'a, T> Default for ColumnView<'a, T> {
    fn default() -> Self {
        ColumnView {
            ts: &[],
            payloads: &[],
        }
    }
}

impl<'a, T> ColumnView<'a, T> {
    /// Number of records in view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The sorted timestamp slice.
    #[must_use]
    pub fn ts(&self) -> &'a [SimTime] {
        self.ts
    }

    /// The parallel payload slice.
    #[must_use]
    pub fn payloads(&self) -> &'a [T] {
        self.payloads
    }

    /// The `i`-th record.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<(SimTime, &'a T)> {
        Some((*self.ts.get(i)?, self.payloads.get(i)?))
    }

    /// Iterates `(timestamp, payload)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &'a T)> + use<'a, T> {
        self.ts.iter().copied().zip(self.payloads)
    }

    /// Sub-view of the records with `start <= t < end`, found by binary
    /// search over the sorted timestamp column.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> ColumnView<'a, T> {
        let lo = self.ts.partition_point(|&t| t < start);
        let hi = self.ts.partition_point(|&t| t < end);
        ColumnView {
            ts: &self.ts[lo..hi],
            payloads: &self.payloads[lo..hi],
        }
    }

    /// The timestamp column split into `[SimTime; LANES]` chunks plus the
    /// remainder tail — the iteration shape of the batched stage kernels.
    #[must_use]
    pub fn ts_lanes(&self) -> (&'a [[SimTime; lanes::LANES]], &'a [SimTime]) {
        lanes::as_lanes(self.ts)
    }

    /// The payload column split into `[T; LANES]` chunks plus the remainder
    /// tail.
    #[must_use]
    pub fn payload_lanes(&self) -> (&'a [[T; lanes::LANES]], &'a [T]) {
        lanes::as_lanes(self.payloads)
    }
}

/// The BLE scan family in CSR (compressed sparse row) layout: a sorted
/// timestamp column, one flat hit array holding every scan's advertisements
/// back to back, and `n + 1` offsets delimiting them — scan `i`'s hits are
/// `hits[offsets[i]..offsets[i + 1]]`.
///
/// Scans are ragged (0–7 hits each on the ICAres-1 deployment), so a
/// fixed-width layout would waste space, and a `Vec` per scan costs a header,
/// a malloc header and capacity slack per scan. Hits stay `(id, rssi)` pairs
/// so [`ScanView::iter`] can hand out `&[(BeaconId, f64)]` slices and the
/// localize kernel reads id and RSSI together.
///
/// Pushes keep the same contract as [`Column::push`]: in-order scans append
/// in O(hits); an out-of-order scan takes a stable sorted insert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanColumn {
    ts: Vec<SimTime>,
    offsets: Vec<u32>,
    hits: Vec<(BeaconId, f64)>,
}

impl Default for ScanColumn {
    fn default() -> Self {
        ScanColumn {
            ts: Vec::new(),
            offsets: vec![0],
            hits: Vec::new(),
        }
    }
}

/// A flat hit index as a CSR offset.
fn hit_offset(len: usize) -> u32 {
    u32::try_from(len).expect("scan column holds fewer than 2^32 hits")
}

impl ScanColumn {
    /// An empty column.
    #[must_use]
    pub fn new() -> Self {
        ScanColumn::default()
    }

    /// Number of scans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the column holds no scans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends one scan, extending the flat hit array straight from `hits`
    /// (no per-scan allocation), and keeps the sorted-timestamp invariant:
    /// a scan older than the last one is moved into place by a stable sorted
    /// insert, so equal timestamps preserve arrival order.
    pub fn push(&mut self, t: SimTime, hits: impl IntoIterator<Item = (BeaconId, f64)>) {
        let start = self.hits.len();
        self.hits.extend(hits);
        let end = hit_offset(self.hits.len());
        if self.ts.last().is_none_or(|&last| last <= t) {
            self.ts.push(t);
            self.offsets.push(end);
        } else {
            let i = self.ts.partition_point(|&x| x <= t);
            let at = self.offsets[i];
            let k = end - hit_offset(start);
            self.hits[at as usize..].rotate_right(k as usize);
            self.ts.insert(i, t);
            self.offsets.insert(i + 1, at);
            for o in &mut self.offsets[i + 1..] {
                *o += k;
            }
        }
    }

    /// Appends another column's scans after this one's, with exactly the
    /// result of [`push`](Self::push)ing them one by one: when `other` starts
    /// at or after this column's last timestamp all three arrays are extended
    /// in one step, `other`'s offsets rebased onto this column's hit count
    /// (into an empty column, `other` moves without a copy); otherwise each
    /// scan takes the stable sorted insert.
    pub fn append(&mut self, other: ScanColumn) {
        match (self.ts.last(), other.ts.first()) {
            (None, _) => *self = other,
            (Some(&last), Some(&first)) if first < last => {
                for (t, hits) in other.view().iter() {
                    self.push(t, hits.iter().copied());
                }
            }
            _ => {
                let base = self.hits.len();
                self.ts.extend(other.ts);
                self.offsets.extend(
                    other.offsets[1..]
                        .iter()
                        .map(|&o| hit_offset(base + o as usize)),
                );
                self.hits.extend(other.hits);
            }
        }
    }

    /// Borrows the whole column.
    #[must_use]
    pub fn view(&self) -> ScanView<'_> {
        ScanView {
            ts: &self.ts,
            offsets: &self.offsets,
            hits: &self.hits,
        }
    }

    /// Footprint of the three arrays (bytes): timestamp, offset and hits,
    /// counting one offset per scan (the leading zero is per column).
    fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ts.len() * (size_of::<SimTime>() + size_of::<u32>())
            + self.hits.len() * size_of::<(BeaconId, f64)>()
    }
}

/// A borrowed window over a [`ScanColumn`]: the window's timestamps, its
/// `len + 1` offsets, and the column's whole flat hit array (the offsets
/// index into it). Zero-copy and `Copy`; re-windowing is a binary search.
#[derive(Debug, Clone, Copy)]
pub struct ScanView<'a> {
    ts: &'a [SimTime],
    offsets: &'a [u32],
    hits: &'a [(BeaconId, f64)],
}

impl Default for ScanView<'_> {
    fn default() -> Self {
        ScanView {
            ts: &[],
            offsets: &[0],
            hits: &[],
        }
    }
}

impl<'a> ScanView<'a> {
    /// Number of scans in view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The sorted timestamp slice.
    #[must_use]
    pub fn ts(&self) -> &'a [SimTime] {
        self.ts
    }

    /// The `len + 1` hit offsets of the scans in view: scan `i`'s hits are
    /// `hits()[offsets()[i]..offsets()[i + 1]]`.
    #[must_use]
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }

    /// The column's whole flat hit array (indexed by [`Self::offsets`]).
    #[must_use]
    pub fn hits(&self) -> &'a [(BeaconId, f64)] {
        self.hits
    }

    /// Iterates `(timestamp, hit slice)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &'a [(BeaconId, f64)])> + use<'a> {
        let hits = self.hits;
        self.ts
            .iter()
            .zip(self.offsets.windows(2))
            .map(move |(&t, o)| (t, &hits[o[0] as usize..o[1] as usize]))
    }

    /// Sub-view of the scans with `start <= t < end`, found by binary search
    /// over the sorted timestamp column.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> ScanView<'a> {
        let lo = self.ts.partition_point(|&t| t < start);
        let hi = self.ts.partition_point(|&t| t < end);
        ScanView {
            ts: &self.ts[lo..hi],
            offsets: &self.offsets[lo..=hi],
            hits: self.hits,
        }
    }
}

/// Everything one badge recorded over one span, in columnar layout.
///
/// Analysis passes borrow a [`TelemetryView`] via [`view`].
///
/// [`view`]: TelemetryStore::view
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TelemetryStore {
    /// The physical unit.
    pub badge: BadgeId,
    /// BLE beacon scans (CSR: one flat hit array for the whole span).
    pub scans: ScanColumn,
    /// Microphone feature frames.
    pub audio: Column<AudioPayload>,
    /// Inertial windows.
    pub imu: Column<ImuPayload>,
    /// Environmental samples.
    pub env: Column<EnvPayload>,
    /// Inter-badge proximity observations.
    pub proximity: Column<ProximityPayload>,
    /// Infrared contacts.
    pub ir: Column<IrPayload>,
    /// Time-sync exchanges.
    pub sync: Column<SyncPayload>,
    /// Bytes of raw data written to the SD card over the span.
    pub bytes_written: u64,
}

impl TelemetryStore {
    /// Creates an empty store for a unit.
    #[must_use]
    pub fn new(badge: BadgeId) -> Self {
        TelemetryStore {
            badge,
            ..Default::default()
        }
    }

    /// Total number of records across all columns.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.scans.len()
            + self.audio.len()
            + self.imu.len()
            + self.env.len()
            + self.proximity.len()
            + self.ir.len()
            + self.sync.len()
    }

    /// Borrows the whole store.
    #[must_use]
    pub fn view(&self) -> TelemetryView<'_> {
        TelemetryView {
            badge: self.badge,
            scans: self.scans.view(),
            audio: self.audio.view(),
            imu: self.imu.view(),
            env: self.env.view(),
            proximity: self.proximity.view(),
            ir: self.ir.view(),
            sync: self.sync.view(),
            bytes_written: self.bytes_written,
        }
    }

    /// Borrows the records of every column with `start <= t < end`.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> TelemetryView<'_> {
        self.view().window(start, end)
    }

    /// Appends another store of the same unit (used to stitch days together).
    ///
    /// # Panics
    ///
    /// Panics if the unit ids differ.
    pub fn append(&mut self, other: TelemetryStore) {
        assert_eq!(
            self.badge, other.badge,
            "appending a different unit's store"
        );
        self.scans.append(other.scans);
        self.audio.append(other.audio);
        self.imu.append(other.imu);
        self.env.append(other.env);
        self.proximity.append(other.proximity);
        self.ir.append(other.ir);
        self.sync.append(other.sync);
        self.bytes_written += other.bytes_written;
    }

    /// Appends one BLE scan (row form) into the scan column, copying its
    /// hits into the flat hit array.
    pub fn push_scan(&mut self, s: &BeaconScan) {
        self.scans.push(s.t_local, s.hits.iter().copied());
    }

    /// Appends one audio frame (row form) into the audio column.
    pub fn push_audio(&mut self, a: AudioFrame) {
        self.audio.push(
            a.t_local,
            AudioPayload {
                level_db: a.level_db,
                voiced: a.voiced,
                f0_hz: a.f0_hz,
            },
        );
    }

    /// Appends one inertial window (row form) into the IMU column.
    pub fn push_imu(&mut self, s: ImuSample) {
        self.imu.push(
            s.t_local,
            ImuPayload {
                accel_var: s.accel_var,
                accel_mean: s.accel_mean,
                step_hz: s.step_hz,
            },
        );
    }

    /// Appends one environmental sample (row form) into the env column.
    pub fn push_env(&mut self, s: EnvSample) {
        self.env.push(
            s.t_local,
            EnvPayload {
                temperature_c: s.temperature_c,
                pressure_hpa: s.pressure_hpa,
                light_lux: s.light_lux,
            },
        );
    }

    /// Appends one proximity observation (row form) into its column.
    pub fn push_proximity(&mut self, p: ProximityObs) {
        self.proximity.push(
            p.t_local,
            ProximityPayload {
                other: p.other,
                rssi: p.rssi,
            },
        );
    }

    /// Appends one infrared contact (row form) into the IR column.
    pub fn push_ir(&mut self, c: IrContact) {
        self.ir.push(c.t_local, IrPayload { other: c.other });
    }

    /// Appends one time-sync exchange (row form) into the sync column.
    pub fn push_sync(&mut self, s: SyncSample) {
        self.sync.push(
            s.t_local,
            SyncPayload {
                t_reference: s.t_reference,
            },
        );
    }

    /// In-memory footprint of the columnar layout (bytes): every column's
    /// timestamp and payload arrays, the scan column counted as timestamps +
    /// offsets + flat hits.
    ///
    /// This is the whole store short of `Vec` capacity slack. The per-scan
    /// `Vec` layout this replaced was counted as header + hits per scan,
    /// which left out each scan's malloc header and capacity slack: so
    /// moving to CSR cut the counted bytes by ≈5.2 MB per mission day but
    /// resident memory by ≈13 MiB per day held (13 held days: 1129 → 954
    /// MiB peak RSS on a 2-core host).
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        let ts = size_of::<SimTime>();
        (self.scans.mem_bytes()
            + self.audio.len() * (ts + size_of::<AudioPayload>())
            + self.imu.len() * (ts + size_of::<ImuPayload>())
            + self.env.len() * (ts + size_of::<EnvPayload>())
            + self.proximity.len() * (ts + size_of::<ProximityPayload>())
            + self.ir.len() * (ts + size_of::<IrPayload>())
            + self.sync.len() * (ts + size_of::<SyncPayload>())) as u64
    }
}

/// A zero-copy view over a [`TelemetryStore`]: `Copy` slice bundles for every
/// record family. This is what the analysis stage kernels take.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryView<'a> {
    /// The physical unit.
    pub badge: BadgeId,
    /// BLE beacon scans.
    pub scans: ScanView<'a>,
    /// Microphone feature frames.
    pub audio: ColumnView<'a, AudioPayload>,
    /// Inertial windows.
    pub imu: ColumnView<'a, ImuPayload>,
    /// Environmental samples.
    pub env: ColumnView<'a, EnvPayload>,
    /// Inter-badge proximity observations.
    pub proximity: ColumnView<'a, ProximityPayload>,
    /// Infrared contacts.
    pub ir: ColumnView<'a, IrPayload>,
    /// Time-sync exchanges.
    pub sync: ColumnView<'a, SyncPayload>,
    /// Bytes of raw data written to the SD card over the viewed span.
    pub bytes_written: u64,
}

impl<'a> TelemetryView<'a> {
    /// Total number of records across all columns in view.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.scans.len()
            + self.audio.len()
            + self.imu.len()
            + self.env.len()
            + self.proximity.len()
            + self.ir.len()
            + self.sync.len()
    }

    /// Sub-view of every column with `start <= t < end`.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> TelemetryView<'a> {
        TelemetryView {
            badge: self.badge,
            scans: self.scans.window(start, end),
            audio: self.audio.window(start, end),
            imu: self.imu.window(start, end),
            env: self.env.window(start, end),
            proximity: self.proximity.window(start, end),
            ir: self.ir.window(start, end),
            sync: self.sync.window(start, end),
            bytes_written: self.bytes_written,
        }
    }

    /// Iterates scans as `(timestamp, hit slice)`.
    pub fn scan_hits(&self) -> impl Iterator<Item = (SimTime, &'a [(BeaconId, f64)])> + use<'a> {
        self.scans.iter()
    }

    /// Iterates scans materialized as row structs (clones each hit list; the
    /// analysis kernels read [`Self::scan_hits`] instead).
    pub fn beacon_scans(&self) -> impl Iterator<Item = BeaconScan> + use<'a> {
        self.scans.iter().map(|(t, h)| BeaconScan {
            t_local: t,
            hits: h.to_vec(),
        })
    }

    /// Iterates audio frames materialized as row structs (payloads are
    /// `Copy`; this costs a register-width copy per record, no allocation).
    pub fn audio_frames(&self) -> impl Iterator<Item = AudioFrame> + use<'a> {
        self.audio.iter().map(|(t, p)| AudioFrame {
            t_local: t,
            level_db: p.level_db,
            voiced: p.voiced,
            f0_hz: p.f0_hz,
        })
    }

    /// Iterates IMU windows materialized as row structs.
    pub fn imu_samples(&self) -> impl Iterator<Item = ImuSample> + use<'a> {
        self.imu.iter().map(|(t, p)| ImuSample {
            t_local: t,
            accel_var: p.accel_var,
            accel_mean: p.accel_mean,
            step_hz: p.step_hz,
        })
    }

    /// Iterates environmental samples materialized as row structs.
    pub fn env_samples(&self) -> impl Iterator<Item = EnvSample> + use<'a> {
        self.env.iter().map(|(t, p)| EnvSample {
            t_local: t,
            temperature_c: p.temperature_c,
            pressure_hpa: p.pressure_hpa,
            light_lux: p.light_lux,
        })
    }

    /// Iterates proximity observations materialized as row structs.
    pub fn proximity_obs(&self) -> impl Iterator<Item = ProximityObs> + use<'a> {
        self.proximity.iter().map(|(t, p)| ProximityObs {
            t_local: t,
            other: p.other,
            rssi: p.rssi,
        })
    }

    /// Iterates infrared contacts materialized as row structs.
    pub fn ir_contacts(&self) -> impl Iterator<Item = IrContact> + use<'a> {
        self.ir.iter().map(|(t, p)| IrContact {
            t_local: t,
            other: p.other,
        })
    }

    /// Iterates time-sync exchanges materialized as row structs.
    pub fn sync_samples(&self) -> impl Iterator<Item = SyncSample> + use<'a> {
        self.sync.iter().map(|(t, p)| SyncSample {
            t_local: t,
            t_reference: p.t_reference,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_simkit::time::SimTime;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn sorted_insert_repairs_out_of_order_appends() {
        let mut col = Column::new();
        col.push(t(10), 'a');
        col.push(t(30), 'b');
        col.push(t(20), 'c'); // the mirrored-IR case: late out-of-order
        col.push(t(20), 'd'); // equal timestamps keep arrival order
        let v = col.view();
        assert_eq!(v.ts(), &[t(10), t(20), t(20), t(30)]);
        assert_eq!(v.payloads(), &['a', 'c', 'd', 'b']);
    }

    #[test]
    fn window_is_half_open_binary_search() {
        let mut col = Column::new();
        for s in [1i64, 2, 2, 3, 5, 8] {
            col.push(t(s), s);
        }
        let w = col.window(t(2), t(5));
        assert_eq!(w.ts(), &[t(2), t(2), t(3)]);
        assert_eq!(w.payloads(), &[2, 2, 3]);
        assert!(col.window(t(9), t(20)).is_empty());
        // Re-windowing a view narrows further.
        assert_eq!(col.view().window(t(0), t(100)).window(t(5), t(9)).len(), 2);
    }

    #[test]
    fn store_append_matches_log_append() {
        let mut a = TelemetryStore::new(BadgeId(0));
        a.ir.push(t(5), IrPayload { other: BadgeId(1) });
        a.bytes_written = 10;
        let mut b = TelemetryStore::new(BadgeId(0));
        b.ir.push(t(2), IrPayload { other: BadgeId(2) });
        b.bytes_written = 7;
        a.append(b);
        assert_eq!(a.ir.view().ts(), &[t(2), t(5)]);
        assert_eq!(a.bytes_written, 17);
        assert_eq!(a.record_count(), 2);
    }

    #[test]
    #[should_panic(expected = "different unit")]
    fn store_append_rejects_other_units() {
        let mut a = TelemetryStore::new(BadgeId(1));
        a.append(TelemetryStore::new(BadgeId(2)));
    }

    #[test]
    fn columnar_footprint_counts_every_record() {
        use std::mem::size_of;
        let mut store = TelemetryStore::new(BadgeId(0));
        assert_eq!(store.mem_bytes(), 0);
        for s in 0..100i64 {
            store.ir.push(t(s), IrPayload { other: BadgeId(1) });
        }
        let ir_only = store.mem_bytes();
        assert_eq!(
            ir_only,
            100 * (size_of::<SimTime>() + size_of::<IrPayload>()) as u64
        );
        // A scan costs its timestamp, one offset and its hits in the flat
        // array: 8 + 4 + 3 × 16 bytes for three hits.
        store.scans.push(t(0), [(BeaconId(4), -60.0); 3]);
        assert_eq!(
            store.mem_bytes() - ir_only,
            (size_of::<SimTime>() + size_of::<u32>() + 3 * size_of::<(BeaconId, f64)>()) as u64
        );
    }
}
