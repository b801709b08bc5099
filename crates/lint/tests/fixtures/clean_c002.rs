//! C002 clean fixture: every post reaches its drain on all paths.

fn fanout(env: &mut Env, bufs: Vec<PackBuffer>) -> Result<(), CommError> {
    for (dst, buf) in bufs.into_iter().enumerate() {
        env.isend(dst, buf)?;
    }
    env.wait_all()?;
    Ok(())
}

fn branchy(env: &mut Env, dst: usize, buf: PackBuffer) -> Result<(), CommError> {
    env.isend(dst, buf)?;
    if fast_path() {
        env.wait_all()?;
    } else {
        env.wait_all()?;
    }
    Ok(())
}
