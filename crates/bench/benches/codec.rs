//! Codec microbenchmarks: JSON parse throughput on a snapshot-shaped
//! document at two sizes (and the ratio between them, which is what tells a
//! linear parser from a quadratic one), CRC32 throughput, and the wire
//! codec's decode and encode cost per frame on a `door_overload`-shaped
//! schedule.

fn main() {
    for (key, value) in rotary_bench::codec::measure() {
        println!("{key:<28} {value:>14.3}");
    }
    println!();
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>10}",
        "frame", "frames", "bytes", "decode ns", "encode ns"
    );
    let costs = rotary_bench::codec::frames(20_000).expect("door-shaped schedule");
    for c in costs {
        println!(
            "{:<12} {:>8} {:>8.1} {:>10.1} {:>10.1}",
            c.kind, c.frames, c.bytes, c.decode_ns, c.encode_ns
        );
    }
}
