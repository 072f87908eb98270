// Fixture knob table: GPUDDT_BETA is a row the docs' knob table omits.
// GPUDDT_GAMMA is named only in this comment, which proves nothing.
inline constexpr KnobSpec kKnobs[] = {
    {Knob::kAlpha, "GPUDDT_ALPHA"},
    {Knob::kBeta, "GPUDDT_BETA"},
};
