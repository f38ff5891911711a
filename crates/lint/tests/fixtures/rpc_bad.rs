// Fixture: a lock guard held across an RPC call.

fn held_across(state: &Lock, rpc: &Client) {
    let _g = state.lock();
    rpc.call(1);
}

fn held_across_async(state: &Lock, rpc: &Client) {
    let _g = state.read();
    rpc.call_async(2);
}

fn held_across_detached(state: &Lock, rpc: &Client) {
    let _g = state.lock();
    rpc.call_detached(3, |_| {});
}
