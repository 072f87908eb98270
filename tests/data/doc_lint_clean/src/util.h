// Fixture source: defines everything the fixture docs claim.
#pragma once
// CLI parsing accepts "--demo-flag".
inline const char* kDemoFlag = "--demo-flag";
