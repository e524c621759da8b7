// Fixture: an example is a consumer.
fn main() {
    alpha::used_by_example();
}
