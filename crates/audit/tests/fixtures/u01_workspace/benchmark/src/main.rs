// Fixture: the benchmark is a consumer.
fn main() {
    let _ = alpha::USED_BY_BENCHMARK;
}
