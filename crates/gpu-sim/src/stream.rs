//! Modeled streams and events — the CUDA-stream analogue of the simulator.
//!
//! A real GPU overlaps work by launching kernels and copies on different
//! *streams*: operations on one stream serialize, operations on different
//! streams run concurrently, and `cudaEventRecord` / `cudaStreamWaitEvent`
//! impose cross-stream ordering. This module models exactly that, in
//! *modeled* time: a [`Stream`] is a monotone time cursor, [`Stream::launch`]
//! appends work of a known modeled duration, [`Stream::record`] captures the
//! cursor as an [`Event`], and [`Stream::wait_event`] stalls a stream until
//! another stream's event has fired.
//!
//! The core crate's modeled replay drives one stream per *resource* (a
//! device's compute queue, a host→device copy lane, the inter-device
//! interconnect) so that stages on different resources overlap — e.g.
//! chunk *i + 1* of an out-of-core corpus transfers while chunk *i*
//! computes — while stages on the same resource serialize, just like
//! hardware queues.
//!
//! ```
//! use gpu_sim::stream::Stream;
//!
//! let mut compute = Stream::new();
//! let mut copy = Stream::new();
//!
//! let chunk0_done = compute.launch(4.0); // compute chunk 0: [0, 4)
//! let load1_done = copy.launch(3.0); //    load chunk 1:    [0, 3) — overlapped
//! compute.wait_event(&load1_done); //      chunk 1 may not start before its data
//! let chunk1_done = compute.launch(4.0); // compute chunk 1: [4, 8)
//! assert_eq!(chunk0_done.ready_at_ms(), 4.0);
//! assert_eq!(chunk1_done.ready_at_ms(), 8.0); // load fully hidden
//! ```

use std::collections::HashMap;
use std::hash::Hash;

/// A point in modeled time recorded on a [`Stream`] (the
/// `cudaEvent_t` analogue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    ready_at_ms: f64,
}

impl Event {
    /// The modeled time at which the event fires, in milliseconds.
    pub fn ready_at_ms(&self) -> f64 {
        self.ready_at_ms
    }
}

/// A modeled in-order work queue: operations launched on the same stream
/// serialize; streams only interact through [`Event`]s.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    cursor_ms: f64,
    busy_ms: f64,
}

impl Stream {
    /// A stream whose cursor starts at time zero.
    pub fn new() -> Stream {
        Stream::default()
    }

    /// The stream's current modeled time: when the next launched operation
    /// would start.
    pub fn cursor_ms(&self) -> f64 {
        self.cursor_ms
    }

    /// Total modeled time spent executing launched work, excluding stalls
    /// introduced by [`Stream::wait_event`].
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Record an event at the stream's current cursor (fires once
    /// everything already launched on this stream has finished).
    pub fn record(&self) -> Event {
        Event {
            ready_at_ms: self.cursor_ms,
        }
    }

    /// Stall this stream until `event` has fired: the cursor advances to
    /// the event time when the event is later than the cursor, and is left
    /// untouched otherwise (waiting on the past is free).
    pub fn wait_event(&mut self, event: &Event) {
        self.cursor_ms = self.cursor_ms.max(event.ready_at_ms);
    }

    /// Enqueue work of `duration_ms` modeled milliseconds, returning the
    /// event that fires at its completion.
    pub fn launch(&mut self, duration_ms: f64) -> Event {
        debug_assert!(
            duration_ms >= 0.0 && duration_ms.is_finite(),
            "stage durations must be finite and non-negative, got {duration_ms}"
        );
        self.cursor_ms += duration_ms;
        self.busy_ms += duration_ms;
        self.record()
    }
}

/// A lazily created family of [`Stream`]s keyed by an arbitrary resource
/// tag — one compute stream per device, one copy lane per transfer
/// direction, and so on.
#[derive(Debug, Clone)]
pub struct StreamSet<R> {
    streams: HashMap<R, Stream>,
}

impl<R: Eq + Hash + Copy> StreamSet<R> {
    /// An empty stream family.
    pub fn new() -> StreamSet<R> {
        StreamSet {
            streams: HashMap::new(),
        }
    }

    /// The stream of `resource`, created at cursor zero on first use.
    pub fn stream_mut(&mut self, resource: R) -> &mut Stream {
        self.streams.entry(resource).or_default()
    }

    /// The stream of `resource` if it has received work, without creating it.
    pub fn get(&self, resource: &R) -> Option<&Stream> {
        self.streams.get(resource)
    }

    /// The latest cursor across every stream — the modeled makespan of all
    /// work launched so far.
    pub fn makespan_ms(&self) -> f64 {
        self.streams
            .values()
            .map(Stream::cursor_ms)
            .fold(0.0, f64::max)
    }

    /// Number of distinct resources that have received work.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no stream has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

impl<R: Eq + Hash + Copy> Default for StreamSet<R> {
    fn default() -> Self {
        StreamSet::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_work_serializes() {
        let mut s = Stream::new();
        let a = s.launch(2.0);
        let b = s.launch(3.0);
        assert_eq!(a.ready_at_ms(), 2.0);
        assert_eq!(b.ready_at_ms(), 5.0);
        assert_eq!(s.cursor_ms(), 5.0);
    }

    #[test]
    fn cross_stream_waits_impose_ordering() {
        let mut copy = Stream::new();
        let mut compute = Stream::new();
        let loaded = copy.launch(10.0);
        compute.launch(1.0); // unrelated earlier work
        compute.wait_event(&loaded);
        let done = compute.launch(2.0);
        assert_eq!(done.ready_at_ms(), 12.0);
        // waiting on an event from the past is free
        let past = Stream::new().record();
        compute.wait_event(&past);
        assert_eq!(compute.cursor_ms(), 12.0);
    }

    #[test]
    fn overlap_hides_the_shorter_side() {
        // compute [0,4), copy [0,3) concurrently: the dependent compute of
        // chunk 1 starts at 4 (its input arrived at 3), total 8 instead of
        // the serialized 11.
        let mut compute = Stream::new();
        let mut copy = Stream::new();
        compute.launch(4.0);
        let load = copy.launch(3.0);
        compute.wait_event(&load);
        let done = compute.launch(4.0);
        assert_eq!(done.ready_at_ms(), 8.0);
    }

    #[test]
    fn stream_set_tracks_makespan_per_resource() {
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        enum R {
            Compute,
            Copy,
        }
        let mut set: StreamSet<R> = StreamSet::new();
        assert!(set.is_empty());
        assert_eq!(set.makespan_ms(), 0.0);
        set.stream_mut(R::Compute).launch(5.0);
        set.stream_mut(R::Copy).launch(7.0);
        set.stream_mut(R::Compute).launch(1.0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.makespan_ms(), 7.0);
    }

    #[test]
    fn busy_time_excludes_event_stalls() {
        let mut copy = Stream::new();
        let mut compute = Stream::new();
        let loaded = copy.launch(10.0);
        compute.launch(1.0);
        compute.wait_event(&loaded); // stalls [1, 10)
        compute.launch(2.0);
        assert_eq!(compute.cursor_ms(), 12.0);
        assert_eq!(compute.busy_ms(), 3.0);
        // the copy stream never waited: fully busy
        assert_eq!(copy.cursor_ms(), copy.busy_ms());
    }

    #[test]
    fn stream_set_get_is_read_only() {
        let mut set: StreamSet<u8> = StreamSet::new();
        assert!(set.get(&0).is_none());
        set.stream_mut(0).launch(2.0);
        assert_eq!(set.get(&0).unwrap().busy_ms(), 2.0);
        assert!(set.get(&1).is_none(), "get must not create streams");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn record_captures_the_current_cursor() {
        let mut s = Stream::new();
        s.launch(1.5);
        let e = s.record();
        assert_eq!(e.ready_at_ms(), 1.5);
        s.launch(1.0);
        assert_eq!(e.ready_at_ms(), 1.5, "events are immutable snapshots");
    }
}
