// Fixture: an integration test's use keeps nothing alive.
#[test]
fn it() {
    alpha::used_only_by_integration_test();
}
