// Fixture: fault-injection site naming.  Sites are dotted lowercase
// (`plane.op`), with `*` wildcards allowed per component or alone.

fn bad_sites(plane: &FaultPlane) {
    plane.fail_nth("BadSite", 1); // LINT: fault-site-name
    plane.fail_nth("single", 1); // LINT: fault-site-name
    plane.torn_nth("lfm.Meta.write", 2); // LINT: fault-site-name
    plane.crash_nth("lfm..write", 3); // LINT: fault-site-name
    plane.rule("lfm.meta write", t(), o()); // LINT: fault-site-name
}

fn fine_sites(plane: &FaultPlane) {
    plane.fail_nth("lfm.meta.write", 1);
    plane.torn_nth("lfm.*", 2);
    plane.crash_nth("net.rpc.ship_42", 3);
    plane.rule("*", t(), o());
    push_rule("Whatever", 1); // identifier tail, not the fault API
}
