//! C002 fixture: posts that can exit undrained.

fn leaky(env: &mut Env, dst: usize, buf: PackBuffer) -> Result<(), CommError> {
    env.isend(dst, buf)?;
    Ok(())
}

fn branch_leak(env: &mut Env, dst: usize, buf: PackBuffer) -> Result<(), CommError> {
    env.isend(dst, buf)?;
    if fast_path() {
        env.wait_all()?;
    }
    Ok(())
}
