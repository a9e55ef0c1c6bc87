//! Codec microbenchmarks: JSON parse throughput on a snapshot-shaped
//! document at two sizes (and the ratio between them, which is what tells a
//! linear parser from a quadratic one) and CRC32 throughput.

fn main() {
    for (key, value) in rotary_bench::codec::measure() {
        println!("{key:<28} {value:>14.3}");
    }
}
