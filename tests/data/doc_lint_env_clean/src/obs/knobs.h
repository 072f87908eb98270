// Fixture knob table: every row is in the docs' knob table.
inline constexpr KnobSpec kKnobs[] = {
    {Knob::kAlpha, "GPUDDT_ALPHA"},
    {Knob::kBeta, "GPUDDT_BETA"},
};
