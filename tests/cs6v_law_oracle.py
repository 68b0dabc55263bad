"""Reference for the exact corner law of the complemented model: a
depth-first walk over every vertex outcome, with the one-color rule written
out by hand (a south line and a west line cross with probability b1 and
annihilate otherwise; an empty vertex stays empty with probability b2 and
nucleates a corner otherwise; a single line passes on)."""


def cs6v_height_distribution(width, height, field):
    """Law of the height at (width, height), empty boundary, as a dict."""
    dist = {}

    def outcomes(i, j, x, y):
        b1, b2 = field.at(x, y)
        if i != j:
            return (((i, j), 1.0),)
        if i:
            return tuple(o for o in (((1, 1), b1), ((0, 0), 1.0 - b1)) if o[1] > 0.0)
        return tuple(o for o in (((0, 0), b2), ((1, 1), 1.0 - b2)) if o[1] > 0.0)

    def rec(x, y, south, west, prob):
        if y > height:
            key = sum(south)
            dist[key] = dist.get(key, 0.0) + prob
            return
        for (k, l), p in outcomes(south[x - 1], west, x, y):
            saved = south[x - 1]
            south[x - 1] = k
            if x == width:
                rec(1, y + 1, south, 0, prob * p)
            else:
                rec(x + 1, y, south, l, prob * p)
            south[x - 1] = saved

    rec(1, 1, [0] * width, 0, 1.0)
    return dist
