pub fn record_hit() {
    blockdec_obs::counter("store.backend.hit").inc();
}
