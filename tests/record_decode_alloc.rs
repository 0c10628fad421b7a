//! Decoding a record must not leak: `RunRecord::from_json` interns
//! counter names, so re-decoding the same record (as every resumed
//! sweep does with its cell cache) leaves the heap where it was. This
//! test binary installs a global allocator that tracks net live bytes
//! (which is why it lives alone in its own integration-test binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use sar_repro::desim::{Json, RunRecord};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

#[test]
fn repeated_decodes_leave_live_bytes_unchanged() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/table1_baseline.json"
    ))
    .unwrap();
    let doc = Json::parse(&text).unwrap();
    let record = &doc.get("records").and_then(Json::as_array).unwrap()[0];
    // The warm-up decode pays for the interned names once.
    let warm = RunRecord::from_json(record).expect("baseline record decodes");
    assert!(warm.counters.iter().count() > 0, "record has no counters");
    drop(warm);
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..100 {
        let again = RunRecord::from_json(record).unwrap();
        drop(again);
    }
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "100 decodes left {} live bytes behind",
        after - before
    );
}
