//! Wire fixture codec: the schema declares every variant of `FMsg`;
//! the proptests never build `FMsg::Drop` (the seeded violation).

wire! {
    enum FMsg {
        Ping = 0,
        Pong = 1,
        Drop = 2,
    }
}
